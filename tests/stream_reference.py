"""Named sub-streams as numpy Generators: the reference for the package's
one stream function.

`substream` is the stream opener the package carried as
`dotmol.streams.substream` before every draw came from
`tokens_and_uniforms`: the root seed, masked to 63 bits, and the first 16
bytes of the labels' sha256 seed a SeedSequence, which seeds PCG64. It
hashes each stream's whole '/'-joined label text, where the package hashes
a shared prefix once. Row t of `tokens_and_uniforms(root, prefix, lasts,
k)[1]` must hold the first k `random()` draws of `substream(root, *prefix,
lasts[t])`, bit for bit.
"""
from __future__ import annotations

import numpy as np

from dotmol.streams import _digest


def substream(root_seed: int, *labels) -> np.random.Generator:
    """Generator for the (root_seed, labels) stream."""
    digest = _digest(labels)
    words = [int.from_bytes(digest[i:i + 4], "big") for i in range(0, 16, 4)]
    return np.random.default_rng(np.random.SeedSequence([int(root_seed) & (2 ** 63 - 1), *words]))
