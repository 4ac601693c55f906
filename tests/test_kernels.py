"""Strided state kernels against dense and tensor-axis references.

Every kernel works on a (2^m, 2, rest) or (left, 2, mid, 2, rest) view of
the flat amplitude vector. The references here build the same operators
with np.kron (n <= 8) or act on the [2]*n tensor axis (n = 12), so they
share no indexing code with the kernels.
"""
import itertools
import math

import numpy as np
import pytest

from dotmol import (EncodedRegisterState, Rotation, apply_rotation, cnot,
                    ising_phase, molecule_probabilities,
                    pair_read_probabilities, product_state, qpc_read_pair,
                    qpc_read_single)
from dotmol.register import ENCODED_MOLECULE_LIMIT, check_register_size

TOL = 1e-12
SIZES = (1, 2, 3, 4, 5)
P_T = np.diag([1.0, 0.0]).astype(complex)
P_S = np.diag([0.0, 1.0]).astype(complex)


class FixedDraw:
    """Stands in for a Generator: random() returns u, so the branch is chosen."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


FIRST, LAST = FixedDraw(0.0), FixedDraw(1.0 - 1e-12)


def all_pairs(n):
    return frozenset(itertools.combinations(range(n), 2))


def random_state(rng, n, flags=None):
    amps = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    amps /= np.linalg.norm(amps)
    return EncodedRegisterState(amps, flags or ("11",) * n)


def embed(n, ops):
    """Dense 2^n operator: ops maps molecule -> 2x2 matrix, identity elsewhere."""
    out = np.eye(1, dtype=complex)
    for m in range(n):
        out = np.kron(out, ops.get(m, np.eye(2, dtype=complex)))
    return out


def random_rotations(rng, count):
    out = [Rotation.hadamard()]
    for _ in range(count):
        out.append(Rotation("uxz", angle=rng.uniform(-7, 7),
                            axis_angle=rng.uniform(-math.pi, math.pi)))
    return out


# n = 8 adds views whose rest axis is short (1, 2, 4 amplitudes) next to
# ones with many leading blocks (up to 128).
@pytest.mark.parametrize("n", SIZES + (8,))
def test_rotation_matches_dense_kron(n, rng):
    state = random_state(rng, n)
    for m in range(n):
        for rot in random_rotations(rng, 2):
            expected = embed(n, {m: rot.matrix()}) @ state.amplitudes
            got = apply_rotation(state, m, rot).amplitudes
            assert np.max(np.abs(got - expected)) < TOL


@pytest.mark.parametrize("n", SIZES[1:])
def test_ising_phase_matches_dense_kron_both_orders(n, rng):
    state = random_state(rng, n)
    adjacency = all_pairs(n)
    phi = rng.uniform(-math.pi, math.pi)
    for i, j in itertools.permutations(range(n), 2):
        both_s = np.diag(embed(n, {i: P_S, j: P_S})).real
        expected = np.exp(1j * phi * both_s) * state.amplitudes
        got = ising_phase(state, i, j, phi, adjacency).amplitudes
        assert np.max(np.abs(got - expected)) < TOL


@pytest.mark.parametrize("n", SIZES)
def test_single_read_matches_dense_projectors(n, rng):
    state = random_state(rng, n)
    for m in range(n):
        branches = {"T": embed(n, {m: P_T}) @ state.amplitudes,
                    "S": embed(n, {m: P_S}) @ state.amplitudes}
        p_t, p_s = molecule_probabilities(state, m)
        assert abs(p_t - np.vdot(branches["T"], branches["T"]).real) < TOL
        assert abs(p_s - np.vdot(branches["S"], branches["S"]).real) < TOL
        for draw, outcome in ((FIRST, "T"), (LAST, "S")):
            got, post = qpc_read_single(state, m, draw)
            assert got == outcome
            expected = branches[outcome] / np.linalg.norm(branches[outcome])
            assert np.max(np.abs(post.amplitudes - expected)) < TOL
            assert post.charge_flags == state.charge_flags


@pytest.mark.parametrize("n", SIZES[1:])
def test_pair_read_matches_dense_projectors(n, rng):
    for i, j in itertools.permutations(range(n), 2):
        flags = tuple("02" if m in (i, j) else "11" for m in range(n))
        state = random_state(rng, n, flags)
        projectors = {
            "I_max": embed(n, {i: P_T, j: P_T}),
            "I_mid": embed(n, {i: P_T, j: P_S}) + embed(n, {i: P_S, j: P_T}),
            "I_min": embed(n, {i: P_S, j: P_S}),
        }
        branches = {k: p @ state.amplitudes for k, p in projectors.items()}
        probs = pair_read_probabilities(state, i, j)
        for level, branch in branches.items():
            assert abs(probs[level] - np.vdot(branch, branch).real) < TOL
        # _sample walks I_max, I_mid, I_min: draws at the edges of the
        # cumulative weights pick the first and last; the middle is hit by
        # a draw inside I_mid's interval
        mid = (probs["I_max"] + 0.5 * probs["I_mid"]) / sum(probs.values())
        for draw, level in ((FIRST, "I_max"), (FixedDraw(mid), "I_mid"),
                            (LAST, "I_min")):
            reading = qpc_read_pair(state, i, j, draw)
            assert reading.level == level
            expected = branches[level] / np.linalg.norm(branches[level])
            assert np.max(np.abs(reading.post_state.amplitudes - expected)) < TOL
            assert reading.post_state.charge_flags == flags


def _axis_rotation(psi, m, u):
    """Reference single-molecule update on the [2]*n tensor axis m."""
    return np.moveaxis(np.tensordot(u, psi, axes=([1], [m])), 0, m)


def _axis_ising(psi, i, j, phi):
    out = psi.copy()
    index = [slice(None)] * psi.ndim
    index[i] = index[j] = 1
    out[tuple(index)] *= np.exp(1j * phi)
    return out


def test_random_circuit_n12_matches_tensor_reference():
    n = 12
    rng = np.random.default_rng(1212)
    state = random_state(rng, n)
    psi = state.amplitudes.reshape([2] * n)
    adjacency = all_pairs(n)
    h = Rotation.hadamard()
    for _ in range(150):
        kind = rng.choice(["h", "cz", "cnot"])
        if kind == "h":
            m = int(rng.integers(n))
            state = apply_rotation(state, m, h)
            psi = _axis_rotation(psi, m, h.matrix())
            continue
        i, j = (int(q) for q in rng.choice(n, size=2, replace=False))
        if kind == "cz":
            state = ising_phase(state, i, j, math.pi, adjacency)
            psi = _axis_ising(psi, i, j, math.pi)
        else:
            state = cnot(state, i, j, adjacency)
            psi = _axis_rotation(psi, j, h.matrix())
            psi = _axis_ising(psi, i, j, math.pi)
            psi = _axis_rotation(psi, j, h.matrix())
    assert np.max(np.abs(state.amplitudes - psi.reshape(-1))) < TOL


def test_register_size_guard():
    check_register_size(ENCODED_MOLECULE_LIMIT)
    with pytest.raises(ValueError, match="at most 20"):
        check_register_size(21)
    # refused before the 2^21-amplitude vector would be allocated
    with pytest.raises(ValueError, match="at most 20"):
        product_state("S" * 21)
