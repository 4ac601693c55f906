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
    assert tokens_and_uniforms(2 ** 40 + 5, [("bell", "psi_minus", 999)], 3)[1].tolist() == [
        [0.5055964373049785, 0.24184546823314512, 0.7444325607549324]]


# one-word roots (0 included), two-word roots, and roots the 63-bit mask
# folds: 2**70 to 0 and -1 to 2**63 - 1
ROOTS = [0, 1, 7, 123456789, 2 ** 32 - 1, 2 ** 32, 2 ** 40 + 5, 2 ** 63 - 1, 2 ** 70, -1]


def random_labels(rnd):
    """A label tuple of 0-4 strings and ints, negative ints included."""
    pick = [lambda: rnd.randrange(-10, 10 ** 9), lambda: rnd.choice(["bell", "psi_plus", ""]),
            lambda: "s%d" % rnd.randrange(1000)]
    return tuple(rnd.choice(pick)() for _ in range(rnd.randrange(5)))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_uniforms_match_substream_draws(k):
    rnd = random.Random(k)
    # 3,600 keys for each k, 10,800 over the three k
    keys = [(root, [random_labels(rnd) for _ in range(340)]) for root in ROOTS]
    keys.append((rnd.randrange(2 ** 64), [random_labels(rnd) for _ in range(100)]))
    keys += [(rnd.randrange(-2 ** 80, 2 ** 80), [random_labels(rnd)]) for _ in range(100)]
    assert sum(len(labels) for _, labels in keys) == 3600
    for root, labels in keys:
        tokens, got = tokens_and_uniforms(root, labels, k)
        assert got.shape == (len(labels), k) and got.dtype == np.float64
        assert np.array_equal(tokens_and_uniforms(root, iter(labels), k)[1], got)
        assert tokens == [stream_token(*label) for label in labels]
        for row, label in zip(got.tolist(), labels):
            rng = substream(root, *label)
            assert row == [rng.random() for _ in range(k)], (root, label)


@pytest.mark.parametrize("k", [64, 300])
def test_long_rows_match_substream_draws(k):
    # simulate draws one column per read from its ("simulate",) stream, so
    # rows run to the program's read count; that label is at every root
    rnd = random.Random(k)
    for root in ROOTS + [rnd.randrange(-2 ** 80, 2 ** 80)]:
        labels = [("simulate",)] + [random_labels(rnd) for _ in range(4)]
        tokens, got = tokens_and_uniforms(root, labels, k)
        assert got.shape == (len(labels), k)
        assert np.array_equal(tokens_and_uniforms(root, labels[:1], k)[1], got[:1])
        for row, label in zip(got.tolist(), labels):
            rng = substream(root, *label)
            assert row == [rng.random() for _ in range(k)], (root, label)


def test_uniforms_of_no_labels_are_empty():
    assert tokens_and_uniforms(7, [], 2)[1].shape == (0, 2)
    assert tokens_and_uniforms(2 ** 40, [], 1)[0] == []


def test_package_draws_only_from_the_stream_function():
    # every draw in src/ comes from tokens_and_uniforms through a draw callable
    for path in Path(dotmol.__file__).parent.glob("*.py"):
        text = path.read_text()
        for name in ("numpy.random", "np.random", "substream", "rng"):
            assert name not in text, (path.name, name)
