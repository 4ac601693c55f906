"""Deterministic named random sub-streams.

Every random draw in a run flows from the root seed through a stream named
by string labels (scenario, trial index, ...). Stream identity depends only
on the labels, never on creation order or thread timing, so concurrent
trials reproduce byte-identical results.
"""
from __future__ import annotations

import hashlib

import numpy as np


def _digest(labels) -> bytes:
    """sha256 of the '/'-joined label strings."""
    text = "/".join(str(label) for label in labels)
    return hashlib.sha256(text.encode("utf-8")).digest()


def stream_token(*labels) -> int:
    """Stable 64-bit token for a label tuple (sha256 based)."""
    return int.from_bytes(_digest(labels)[:8], "big")


def substream(root_seed: int, *labels) -> np.random.Generator:
    """Generator for the (root_seed, labels) stream."""
    digest = _digest(labels)
    words = [int.from_bytes(digest[i:i + 4], "big") for i in range(0, 16, 4)]
    return np.random.default_rng(np.random.SeedSequence([int(root_seed) & (2 ** 63 - 1), *words]))
