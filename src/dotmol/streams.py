"""Deterministic named random sub-streams.

Every random draw in a run flows from the root seed through a stream named
by string labels (scenario, trial index, ...). Stream identity depends only
on the root seed and the labels, never on the order in which streams are
opened, so a trial replays from its labels alone. tokens_and_uniforms(),
the one source of draws, reads the streams (*prefix, last) for many lasts
in one pass, bit for bit as numpy's PCG64 seeded through SeedSequence. The
shared prefix is hashed once, and each stream copies that sha256 midstate
and hashes only its last label. The mixing (O'Neill's seed_seq) runs on one
(4, T) uint32 pool over all streams: its hash constants do not depend on
the data, so they are built once, and each source word is mixed into the
pool by one broadcast operation. PCG64 is then jumped, not stepped: each
output column's state is an affine map of the seeded state with its own
constants, built once per call in Python ints, applied to every stream at
once in (high, low) uint64 words, then XSL-RR output.
"""
from __future__ import annotations

import hashlib

import numpy as np

_MASK32, _MASK64, _MASK128 = 2 ** 32 - 1, 2 ** 64 - 1, 2 ** 128 - 1
# SeedSequence constants (numpy's bit_generator module, pool size 4); PCG64's multiplier
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43b0d7e5, 0x931e8875, 0x8b51f9dd, 0x58f38ded
_MIX_L, _MIX_R = np.uint32(0xca01f9dd), np.uint32(0x4973f715)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_constants(init: int, mult: int, n: int) -> np.ndarray:
    """The n + 1 hash constants init * mult^i mod 2^32 as a uint32 column:
    hashmix call i xors its value with constant i and multiplies by i + 1."""
    consts = [init]
    for _ in range(n):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, dtype=np.uint32)[:, None]


# mix_entropy makes 4 + 12 hashmix calls, and 4 more for each entropy word
# past the pool's four (at most two: a two-word root and four digest
# words); generate_state makes 8
_HASH_A = _hash_constants(_INIT_A, _MULT_A, 24)
_HASH_B = _hash_constants(_INIT_B, _MULT_B, 8)
_SHIFT = np.uint32(16)


def _hashmix(value: np.ndarray, consts: np.ndarray, n: int, rows: int) -> np.ndarray:
    """hashmix calls n .. n + rows - 1 as rows of one array; value is one
    row broadcast to all of them, or one row for each."""
    value = value ^ consts[n:n + rows]
    value *= consts[n + 1:n + rows + 1]
    value ^= value >> _SHIFT
    return value


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    value = _MIX_L * x
    value -= _MIX_R * y
    value ^= value >> _SHIFT
    return value


def _digest(labels) -> bytes:
    """sha256 of the '/'-joined label strings."""
    text = "/".join(map(str, labels))
    return hashlib.sha256(text.encode("utf-8")).digest()


def stream_token(*labels) -> int:
    """Stable 64-bit token for a label tuple (sha256 based)."""
    return int.from_bytes(_digest(labels)[:8], "big")


def tokens_and_uniforms(root_seed: int, prefix, lasts, k: int) -> tuple[list[int], np.ndarray]:
    """(tokens, draws) over the T streams (*prefix, last), one for each last
    in the iterable lasts: tokens[t] is stream_token(*prefix, lasts[t]),
    and row t of the (T, k) array draws holds the first k uniforms in
    [0, 1) of the stream seeded by root_seed (masked to 63 bits) and the
    labels' sha256. The '/'-joined prefix and its trailing '/' (nothing for
    an empty prefix) are hashed once; each last is one str() hashed on a
    copy of that midstate, so a last may hold any character, '/' and
    newlines included."""
    base = hashlib.sha256(("/".join(map(str, prefix)) + "/" if prefix else "").encode("utf-8"))

    def digest(last) -> bytes:
        h = base.copy()
        h.update(str(last).encode("utf-8"))
        return h.digest()

    digests = b"".join(map(digest, lasts))
    tokens = np.frombuffer(digests, ">u8")[::4].tolist()
    words = np.frombuffer(digests, ">u4").reshape(-1, 8)
    # SeedSequence([root, *words[:4]]) entropy: 0 and any root below 2**32
    # coerce to one uint32 word, a larger one to two (low word first)
    root = int(root_seed) & (2 ** 63 - 1)
    root_words = [root & _MASK32, root >> 32] if root >> 32 else [root]
    entropy = np.empty((len(root_words) + 4, len(words)), dtype=np.uint32)
    entropy[:len(root_words)] = np.array(root_words, dtype=np.uint32)[:, None]
    entropy[len(root_words):] = words[:, :4].T
    # mix_entropy: the pool hashes the first four words; each pool word is
    # then mixed into the other three, and each further word into all four
    pool = _hashmix(entropy[:4], _HASH_A, 0, 4)
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], _HASH_A, 4 + 3 * src, 3))
    for n, word in enumerate(entropy[4:]):
        pool = _mix(pool, _hashmix(word, _HASH_A, 16 + 4 * n, 4))
    # generate_state(4, uint64): eight words cycled from the pool, paired
    # low word first into the PCG64 seed (s0, s1) and increment (i0, i1)
    state = _hashmix(np.concatenate([pool, pool]), _HASH_B, 0, 8).astype(np.uint64)
    s0, s1, i0, i1 = (state[::2] | state[1::2] << np.uint64(32))[:, :, None]
    # PCG64 srandom: state 0, step, add the seed, step. Output j (from 1)
    # reads the state j steps later: with x = seed + inc, that state is
    # M^(j+1) x + (1 + M + ... + M^j) inc mod 2^128, so each column has its
    # own jump-ahead pair (Brown's LCG stride, 1994) and each row the same
    # (high, low) uint64 arithmetic
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
