"""Register simulation: the encoded 2^n model and its Ising phase.

The encoded model holds only 2^n amplitudes over {|T> = 0, |S> = 1} per
molecule (row-major, molecule 0 is the most significant digit); which
molecules a pulse holds in (0,2) is the schedule's to track. It applies
ideal rotations plus the detuning-controlled Ising phase. That phase is
the closed-form integral of the doubly-occupied weight sin^2(theta) over a
piecewise-linear detuning waveform. The charge-resolved 3^n oracle it is
checked against lives with the tests (tests/charge_oracle.py).

The public operations never mutate a state: each copies the amplitudes
and runs an in-place kernel (rotate_in_place, phase_in_place) on the copy.
scheduler.simulate_program runs the same kernels on a private buffer that
it owns and mutates, so there is one kernel set for both.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import HBAR_UEV_NS
from .electrostatics import LayoutGeometry, pair_coupling
from .physics import DetuningWaveform

_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)
_PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

# 2^20 amplitudes (16 MiB) is the largest register measured to run end to
# end. Its output bytes dominate the memory: the state is rendered a slice
# at a time, and a dense state (20 H, 20 Z, 19 CZ on line(20)) peaks at
# ~140 MiB as JSON (71 MiB of output) and ~121 MiB as CSV (52 MiB).
ENCODED_MOLECULE_LIMIT = 20


@dataclass(frozen=True)
class EncodedRegisterState:
    """2^n amplitudes over the encoded {T, S} basis; n follows from their
    count, which must be a power of two (one amplitude is n = 0).

    Public operations return new states and never mutate one in place;
    only scheduler.simulate_program mutates amplitudes, in its own
    private buffer.
    """

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        object.__setattr__(self, "amplitudes", amps)
        size = len(amps) if amps.ndim == 1 else 0
        if not size or size & (size - 1):
            raise ValueError(f"need 2^n amplitudes, got shape {amps.shape}")
        norm = float(np.vdot(amps, amps).real)
        if not math.isfinite(norm) or abs(norm - 1.0) > 1e-10:
            raise ValueError(f"state norm^2 = {norm!r} is not 1 within 1e-10")

    @property
    def n(self) -> int:
        return len(self.amplitudes).bit_length() - 1


def check_register_size(n: int) -> None:
    """Refuse a register whose 2^n amplitudes exceed the supported budget."""
    if n > ENCODED_MOLECULE_LIMIT:
        raise ValueError(f"{n} molecules need 2^{n} amplitudes; the encoded "
                         f"register supports at most {ENCODED_MOLECULE_LIMIT}")


def molecule_view(amps: np.ndarray, m: int) -> np.ndarray:
    """(2^m, 2, rest) view of a flat amplitude vector; axis 1 is molecule m."""
    return amps.reshape(1 << m, 2, -1)


def pair_view(amps: np.ndarray, i: int, j: int) -> np.ndarray:
    """(left, 2, mid, 2, rest) view; axes 1 and 3 are molecules min(i, j)
    and max(i, j). Every pair operation is symmetric in i and j."""
    i, j = min(i, j), max(i, j)
    return amps.reshape(1 << i, 2, 1 << (j - i - 1), 2, -1)


def product_state(labels: str) -> EncodedRegisterState:
    """Computational product state from a string over {T, S}, e.g. 'TS'."""
    if not labels or any(ch not in "TS" for ch in labels):
        raise ValueError("labels must be a non-empty string over {T, S}")
    n = len(labels)
    check_register_size(n)
    index = 0
    for ch in labels:
        index = index * 2 + (1 if ch == "S" else 0)
    amps = np.zeros(2 ** n, dtype=complex)
    amps[index] = 1.0
    return EncodedRegisterState(amps)


def molecule_probabilities(state: EncodedRegisterState, molecule: int) -> tuple[float, float]:
    """(P(T), P(S)) marginal for one molecule."""
    p_s = float(np.sum(np.abs(molecule_view(state.amplitudes, molecule)[:, 1]) ** 2))
    return 1.0 - p_s, p_s


@dataclass(frozen=True)
class Rotation:
    """Single-molecule rotation available to the hardware.

    kind      "uz" (about Z), "uxz" (about an axis in the XZ plane at
              axis_angle from Z) or "hadamard".
    angle     rotation angle, rad (ignored for hadamard).
    axis_angle  XZ-plane axis tilt, rad (uxz only).
    duration  wall time charged to coherence budgets, ns.
    """

    kind: str
    angle: float = 0.0
    axis_angle: float = 0.0
    duration: float = 0.0

    def __post_init__(self):
        if self.kind not in ("uz", "uxz", "hadamard"):
            raise ValueError(f"unknown rotation kind {self.kind!r}")
        if not math.isfinite(self.angle) or not math.isfinite(self.axis_angle):
            raise ValueError("rotation angles must be finite")
        if self.duration < 0:
            raise ValueError("rotation duration must be >= 0")

    @staticmethod
    def z(angle: float) -> "Rotation":
        return Rotation("uz", angle=angle)

    @staticmethod
    def xz(axis_angle: float, angle: float) -> "Rotation":
        return Rotation("uxz", angle=angle, axis_angle=axis_angle)

    @staticmethod
    def hadamard() -> "Rotation":
        return Rotation("hadamard")

    def matrix(self) -> np.ndarray:
        if self.kind == "hadamard":
            return _HADAMARD.copy()
        if self.kind == "uz":
            return _axis_rotation(0.0, self.angle)
        return _axis_rotation(self.axis_angle, self.angle)


def _axis_rotation(axis_angle: float, angle: float) -> np.ndarray:
    """exp(-i*angle/2 * (sin(axis)X + cos(axis)Z))."""
    n = math.sin(axis_angle) * _PAULI_X + math.cos(axis_angle) * _PAULI_Z
    return math.cos(angle / 2.0) * np.eye(2, dtype=complex) - 1j * math.sin(angle / 2.0) * n


def apply_rotation(state: EncodedRegisterState, molecule: int,
                   rotation: Rotation) -> EncodedRegisterState:
    """Apply a single-molecule rotation."""
    _check_molecule(state.n, molecule)
    amps = state.amplitudes.copy()
    psi = molecule_view(amps, molecule)
    scratch = np.empty((2,) + psi[:, 0].shape, dtype=complex)
    rotate_in_place(psi, rotation.matrix(), scratch)
    return EncodedRegisterState(amps)


def rotate_in_place(psi: np.ndarray, u: np.ndarray, scratch: np.ndarray) -> None:
    """Apply the 2x2 matrix u to axis 1 of a (left, 2, rest) view in place.

    scratch holds two (left, rest) arrays that this overwrites. The terms
    are t*u00 + s*u01 and t*u10 + s*u11, each product rounded once, so the
    result does not depend on which molecule the view is taken over.
    """
    (u00, u01), (u10, u11) = u.tolist()
    t, s = psi[:, 0], psi[:, 1]
    w0, w1 = scratch
    # out= writes into the scratch: np.matmul loops over the 2x2 blocks one
    # at a time, and fresh temporaries per term made the allocator return
    # and re-fault ~2 MiB a call at n=16.
    np.multiply(s, u01, out=w0)
    np.multiply(t, u10, out=w1)
    t *= u00
    t += w0
    s *= u11
    np.add(w1, s, out=s)


def ising_phase(state: EncodedRegisterState, i: int, j: int, phi: float,
                adjacency: frozenset[tuple[int, int]]) -> EncodedRegisterState:
    """Multiply every |...S...S...> amplitude (S at i and j) by e^{i phi}.

    The coupling is mediated by simultaneous charge displacement, so only
    adjacent pairs may interact; non-adjacent pairs are a compile error
    upstream and rejected here.
    """
    _check_pair(state.n, i, j, adjacency)
    amps = state.amplitudes.copy()
    phase_in_place(amps, i, j, phi)
    return EncodedRegisterState(amps)


def phase_in_place(amps: np.ndarray, i: int, j: int, phi: float) -> None:
    """Multiply the amplitudes with S on memory axes i and j by e^{i phi}."""
    pair_view(amps, i, j)[:, 1, :, 1] *= np.exp(1j * phi)


def cnot(state: EncodedRegisterState, control: int, target: int,
         adjacency: frozenset[tuple[int, int]]) -> EncodedRegisterState:
    """CNOT as Hadamard(target), Ising pi phase, Hadamard(target)."""
    h = Rotation.hadamard()
    out = apply_rotation(state, target, h)
    out = ising_phase(out, control, target, math.pi, adjacency)
    return apply_rotation(out, target, h)


def _check_molecule(n: int, m: int):
    if not 0 <= m < n:
        raise ValueError(f"molecule index {m} out of range for n={n}")


def _check_distinct(n: int, i: int, j: int):
    _check_molecule(n, i)
    _check_molecule(n, j)
    if i == j:
        raise ValueError("pair indices must differ")


def _check_pair(n: int, i: int, j: int, adjacency):
    _check_distinct(n, i, j)
    if (min(i, j), max(i, j)) not in adjacency:
        raise ValueError(f"molecules {i} and {j} are not adjacent; "
                         "two-molecule operations need adjacency (no routing)")


def phase_from_waveform(w: DetuningWaveform, g: LayoutGeometry, tc: float) -> float:
    """Ising phase (1/hbar) * integral of h_cc(theta(eps(t))) dt, rad.

    sin^2(theta) = (1 + eps/h) / 2 with h = hypot(eps, 2 Tc), so a linear
    segment integrates exactly to dt/2 * (1 + (eps0 + eps1) / (h0 + h1)):
    holds and symmetric ramps need no special case. Both molecules of the
    pair are assumed to follow the same waveform.
    """
    coupling_max = pair_coupling(g).coupling_max
    total = 0.0
    for t0, t1, e0, e1 in w.segments():
        h0, h1 = math.hypot(e0, 2.0 * tc), math.hypot(e1, 2.0 * tc)
        total += (t1 - t0) / 2.0 * (1.0 + (e0 + e1) / (h0 + h1))
    return coupling_max * total / HBAR_UEV_NS
