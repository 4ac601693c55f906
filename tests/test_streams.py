"""Named random sub-streams: values are pinned so a refactor cannot move them,
and every row of the one stream function matches the numpy reference."""
import random
from pathlib import Path

import numpy as np
import pytest
from stream_reference import substream

import dotmol
from dotmol.streams import stream_token, tokens_and_uniforms


def test_stream_token_values_are_pinned():
    assert stream_token("bell", "psi_plus", 0) == 15670677886114524617
    assert stream_token() == 16406829232824261652


def test_substream_values_are_pinned():
    assert substream(7, "bell", "psi_plus", 0).random() == 0.2299360810818375
    # the root seed is masked to 63 bits
    assert substream(2 ** 70, "x").random() == 0.571433285391555


def test_uniforms_values_are_pinned():
    assert tokens_and_uniforms(2 ** 40 + 5, ("bell", "psi_minus"), [999], 3)[1].tolist() == [
        [0.5055964373049785, 0.24184546823314512, 0.7444325607549324]]


# one-word roots (0 included), two-word roots, and roots the 63-bit mask
# folds: 2**70 to 0 and -1 to 2**63 - 1
ROOTS = [0, 1, 7, 123456789, 2 ** 32 - 1, 2 ** 32, 2 ** 40 + 5, 2 ** 63 - 1, 2 ** 70, -1]
# lasts each stream hashes after the shared prefix: ints, negatives
# included, and strings: empty, the separator, non-ASCII, and a newline,
# which stays one stream (a batch that joined lasts by newlines and split
# the hashed text would read it as two)
EDGE_LASTS = [0, -1, -10 ** 12, 2 ** 70, "", "/", "\u03c8-\u00e9", "a\nb", "\n"]


def random_label(rnd):
    """One label: an int, negatives included, or a string."""
    return rnd.choice([lambda: rnd.randrange(-10, 10 ** 9),
                       lambda: rnd.choice(["bell", "psi_plus", ""]),
                       lambda: "s%d" % rnd.randrange(1000)])()


def random_prefix(rnd, depth):
    return tuple(random_label(rnd) for _ in range(depth))


def assert_rows_match_substreams(root, prefix, lasts, k):
    """tokens_and_uniforms(root, prefix, lasts, k) against stream_token and
    the first k draws of substream(root, *prefix, last), row by row."""
    tokens, got = tokens_and_uniforms(root, prefix, lasts, k)
    assert got.shape == (len(lasts), k) and got.dtype == np.float64
    assert tokens == [stream_token(*prefix, last) for last in lasts]
    for row, last in zip(got.tolist(), lasts):
        rng = substream(root, *prefix, last)
        assert row == [rng.random() for _ in range(k)], (root, prefix, last)
    return tokens, got


@pytest.mark.parametrize("k", [1, 2, 3])
def test_uniforms_match_substream_draws(k):
    rnd = random.Random(k)
    # 3,600 streams for each k, 10,800 over the three k: at every root,
    # prefixes of 0-3 labels, each with the edge lasts and random ones
    keys = [(root, random_prefix(rnd, depth), EDGE_LASTS + [random_label(rnd) for _ in range(76)])
            for root in ROOTS for depth in range(4)]
    keys.append((rnd.randrange(2 ** 64), ("bell", "psi_plus"), range(10 ** 6, 10 ** 6 + 100)))
    keys += [(rnd.randrange(-2 ** 80, 2 ** 80), random_prefix(rnd, rnd.randrange(4)),
              [random_label(rnd)]) for _ in range(100)]
    assert sum(len(lasts) for _, _, lasts in keys) == 3600
    for root, prefix, lasts in keys:
        got = assert_rows_match_substreams(root, prefix, lasts, k)[1]
        assert np.array_equal(tokens_and_uniforms(root, prefix, iter(lasts), k)[1], got)
    # the rows of range(0, T) are those of range(0, s) and range(s, T) stacked
    for root in ROOTS:
        prefix = ("bell", rnd.choice(["phi_plus", "psi_minus"]))
        whole = tokens_and_uniforms(root, prefix, range(70), k)
        for split in (0, 1, rnd.randrange(2, 69), 69, 70):
            head = tokens_and_uniforms(root, prefix, range(split), k)
            tail = tokens_and_uniforms(root, prefix, range(split, 70), k)
            assert whole[0] == head[0] + tail[0]
            assert np.array_equal(whole[1], np.vstack([head[1], tail[1]]))


@pytest.mark.parametrize("k", [64, 300])
def test_long_rows_match_substream_draws(k):
    # simulate draws one column per read from its ("simulate",) stream, so
    # rows run to the program's read count; that stream is at every root
    rnd = random.Random(k)
    for root in ROOTS + [rnd.randrange(-2 ** 80, 2 ** 80)]:
        for prefix, lasts in [((), ["simulate"] + EDGE_LASTS[:4]),
                              (random_prefix(rnd, rnd.randrange(1, 4)),
                               [random_label(rnd) for _ in range(4)])]:
            got = assert_rows_match_substreams(root, prefix, lasts, k)[1]
            assert np.array_equal(tokens_and_uniforms(root, prefix, lasts[:1], k)[1], got[:1])
            # a row's first j columns are the k = j call's row
            for j in (1, 2, 3, k // 2, k - 1):
                assert np.array_equal(tokens_and_uniforms(root, prefix, lasts, j)[1],
                                      got[:, :j])


def test_uniforms_of_no_labels_are_empty():
    assert tokens_and_uniforms(7, ("bell", "psi_plus"), [], 2)[1].shape == (0, 2)
    assert tokens_and_uniforms(2 ** 40, (), range(0), 1)[0] == []


def test_package_draws_only_from_the_stream_function():
    # every draw in src/ comes from tokens_and_uniforms through a draw callable
    for path in Path(dotmol.__file__).parent.glob("*.py"):
        text = path.read_text()
        for name in ("numpy.random", "np.random", "substream", "rng"):
            assert name not in text, (path.name, name)
