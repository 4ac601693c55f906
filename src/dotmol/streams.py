"""Deterministic named random sub-streams.

Every random draw in a run flows from the root seed through a stream named
by string labels (scenario, trial index, ...). Stream identity depends only
on the root seed and the labels, never on the order in which streams are
opened, so a trial replays from its labels alone. tokens_and_uniforms(),
the one source of draws, reads many streams in one pass, bit for bit as
numpy's PCG64 seeded through SeedSequence: the mixing (O'Neill's seed_seq)
runs on uint32 columns over all streams. PCG64 is then jumped, not
stepped: each output column's state is an affine map of the seeded state
with its own constants, built once per call in Python ints, applied to
every stream at once in (high, low) uint64 words, then XSL-RR output.
"""
from __future__ import annotations

import hashlib

import numpy as np

_MASK32, _MASK64, _MASK128 = 2 ** 32 - 1, 2 ** 64 - 1, 2 ** 128 - 1
# SeedSequence constants (numpy's bit_generator module, pool size 4); PCG64's multiplier
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43b0d7e5, 0x931e8875, 0x8b51f9dd, 0x58f38ded
_MIX_L, _MIX_R = np.uint32(0xca01f9dd), np.uint32(0x4973f715)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _digest(labels) -> bytes:
    """sha256 of the '/'-joined label strings."""
    text = "/".join(map(str, labels))
    return hashlib.sha256(text.encode("utf-8")).digest()


def stream_token(*labels) -> int:
    """Stable 64-bit token for a label tuple (sha256 based)."""
    return int.from_bytes(_digest(labels)[:8], "big")


def tokens_and_uniforms(root_seed: int, label_tuples, k: int) -> tuple[list[int], np.ndarray]:
    """(tokens, draws) over an iterable of T label tuples, read once with one
    sha256 per tuple: tokens[t] is stream_token(*labels) of tuple t, and row
    t of the (T, k) array draws holds the first k uniforms in [0, 1) of the
    stream seeded by root_seed (masked to 63 bits) and the labels' sha256."""
    words = np.frombuffer(b"".join(map(_digest, label_tuples)), ">u4").reshape(-1, 8)
    tokens = (words[:, 0].astype(np.uint64) << np.uint64(32) | words[:, 1]).tolist()
    # SeedSequence([root, *words[:4]]) entropy: 0 and any root below 2**32
    # coerce to one uint32 word, a larger one to two (low word first)
    root = int(root_seed) & (2 ** 63 - 1)
    root_words = [root & _MASK32, root >> 32] if root >> 32 else [root]
    entropy = [np.full(len(words), w, np.uint32) for w in root_words] + list(words[:, :4].T)
    hash_const = _INIT_A

    def hashmix(value, mult=_MULT_A):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * mult & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        value = _MIX_L * x - _MIX_R * y
        return value ^ (value >> np.uint32(16))

    pool = [hashmix(e) for e in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for e in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(e))
    # generate_state(4, uint64): eight words cycled from the pool, paired
    # low word first into the PCG64 seed (s0, s1) and increment (i0, i1)
    hash_const = _INIT_B
    state = [hashmix(pool[i % 4], _MULT_B).astype(np.uint64) for i in range(8)]
    # PCG64 srandom: state 0, step, add the seed, step. Output j (from 1)
    # reads the state j steps later: with x = seed + inc, that state is
    # M^(j+1) x + (1 + M + ... + M^j) inc mod 2^128, so each column has its
    # own jump-ahead pair (Brown's LCG stride, 1994) and each row the same
    # (high, low) uint64 arithmetic
    s0, s1, i0, i1 = [(lo | hi << np.uint64(32))[:, None]
                      for lo, hi in zip(state[::2], state[1::2])]
    one = np.uint64(1)
    inc = (i0 << one | i1 >> np.uint64(63), i1 << one | one)
    x_lo = s1 + inc[1]
    x = (s0 + inc[0] + (x_lo < s1), x_lo)
    mults, sums, mult, total = [], [], _PCG_MULT, 1
    for _ in range(k):
        total = (total + mult) & _MASK128
        mult = mult * _PCG_MULT & _MASK128
        mults.append(mult)
        sums.append(total)
    hi, lo = _mul128(mults, x)
    c_hi, c_lo = _mul128(sums, inc)
    lo += c_lo
    hi += c_hi + (lo < c_lo)
    # XSL-RR: the two words xor-ed, rotated right by the top 6 bits
    rot = hi >> np.uint64(58)
    lo ^= hi
    lo = lo >> rot | lo << ((np.uint64(64) - rot) & np.uint64(63))
    out = (lo >> np.uint64(11)).astype(np.float64)
    out *= 2.0 ** -53
    return tokens, out


def _mul128(consts, x) -> tuple[np.ndarray, np.ndarray]:
    """(high, low) uint64 words of consts[j] * x mod 2^128 in column j, for
    Python-int constants and x a (high, low) pair of (T, 1) word columns."""
    a_hi = np.array([c >> 64 for c in consts], dtype=np.uint64)
    a_lo = np.array([c & _MASK64 for c in consts], dtype=np.uint64)
    x_hi, x_lo = x
    # the high word of the low words' product, from their 32-bit halves
    half, low = np.uint64(32), np.uint64(_MASK32)
    a1, a0, x1, x0 = a_lo >> half, a_lo & low, x_lo >> half, x_lo & low
    p10, p01 = a1 * x0, a0 * x1
    mid = (a0 * x0 >> half) + (p10 & low) + (p01 & low)
    hi = a1 * x1 + (p10 >> half) + (p01 >> half) + (mid >> half)
    hi += a_hi * x_lo + a_lo * x_hi
    return hi, a_lo * x_lo
