"""Register simulation: the encoded 2^n model and its Ising phase.

The encoded model tracks 2^n amplitudes over {|T> = 0, |S> = 1} per
molecule (row-major, molecule 0 is the most significant digit) and applies
ideal rotations plus the detuning-controlled Ising phase. That phase is
the closed-form integral of the doubly-occupied weight sin^2(theta) over a
piecewise-linear detuning waveform. The charge-resolved 3^n oracle it is
checked against lives with the tests (tests/charge_oracle.py).
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
# end; the JSON render of its amplitudes dominates the memory.
ENCODED_MOLECULE_LIMIT = 20


@dataclass(frozen=True)
class EncodedRegisterState:
    """2^n amplitudes over the encoded {T, S} basis plus charge bookkeeping.

    charge_flags marks, per molecule, whether an active schedule step holds
    it at the charge-sensitive point ("02") or at idle ("11"). Operations
    return new states; nothing mutates in place.
    """

    amplitudes: np.ndarray
    charge_flags: tuple[str, ...]

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "charge_flags", tuple(self.charge_flags))
        n = len(self.charge_flags)
        if amps.shape != (2 ** n,):
            raise ValueError(f"need 2^{n} amplitudes, got shape {amps.shape}")
        if any(f not in ("11", "02") for f in self.charge_flags):
            raise ValueError("charge flags must be '11' or '02'")
        norm = float(np.vdot(amps, amps).real)
        if abs(norm - 1.0) > 1e-10:
            raise ValueError(f"state norm^2 = {norm!r} is not 1 within 1e-10")

    @property
    def n(self) -> int:
        return len(self.charge_flags)

    def with_flags(self, flags: dict[int, str]) -> "EncodedRegisterState":
        new = list(self.charge_flags)
        for m, f in flags.items():
            new[m] = f
        return EncodedRegisterState(self.amplitudes, tuple(new))


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
    return EncodedRegisterState(amps, ("11",) * n)


def molecule_probabilities(state: EncodedRegisterState, molecule: int) -> tuple[float, float]:
    """(P(T), P(S)) marginal for one molecule."""
    p_s = float(np.sum(np.abs(molecule_view(state.amplitudes, molecule)[:, 1]) ** 2))
    return 1.0 - p_s, p_s


def state_json(state: EncodedRegisterState) -> list[list[float]]:
    """Amplitudes as (re, im) pairs, basis index in row-major molecule order."""
    return [[float(a.real), float(a.imag)] for a in state.amplitudes]


@dataclass(frozen=True)
class Rotation:
    """Single-molecule rotation available to the hardware.

    kind      "uz" (about Z), "uxz" (about an axis in the XZ plane at
              axis_angle from Z), "hadamard", or "euler_x" (X rotation
              composed as Uxz * Uz * Uxz).
    angle     rotation angle, rad (ignored for hadamard).
    axis_angle  XZ-plane axis tilt, rad (uxz only).
    duration  wall time charged to coherence budgets, ns.
    """

    kind: str
    angle: float = 0.0
    axis_angle: float = 0.0
    duration: float = 0.0

    def __post_init__(self):
        if self.kind not in ("uz", "uxz", "hadamard", "euler_x"):
            raise ValueError(f"unknown rotation kind {self.kind!r}")
        if not math.isfinite(self.angle) or not math.isfinite(self.axis_angle):
            raise ValueError("rotation angles must be finite")
        if self.duration < 0:
            raise ValueError("rotation duration must be >= 0")

    @staticmethod
    def z(angle: float, duration: float = 0.0) -> "Rotation":
        return Rotation("uz", angle=angle, duration=duration)

    @staticmethod
    def xz(axis_angle: float, angle: float, duration: float = 0.0) -> "Rotation":
        return Rotation("uxz", angle=angle, axis_angle=axis_angle, duration=duration)

    @staticmethod
    def hadamard(duration: float = 0.0) -> "Rotation":
        return Rotation("hadamard", duration=duration)

    @staticmethod
    def euler_x(angle: float, duration: float = 0.0) -> "Rotation":
        return Rotation("euler_x", angle=angle, duration=duration)

    def matrix(self) -> np.ndarray:
        if self.kind == "hadamard":
            return _HADAMARD.copy()
        if self.kind == "uz":
            return _axis_rotation(0.0, self.angle)
        if self.kind == "uxz":
            return _axis_rotation(self.axis_angle, self.angle)
        # euler_x: Uxz(pi/4, pi) Uz(phi) Uxz(pi/4, pi) = -Rx(phi). At a
        # 45-degree axis the three-step composition is exact for every phi.
        wing = _axis_rotation(math.pi / 4.0, math.pi)
        return wing @ _axis_rotation(0.0, self.angle) @ wing


def _axis_rotation(axis_angle: float, angle: float) -> np.ndarray:
    """exp(-i*angle/2 * (sin(axis)X + cos(axis)Z))."""
    n = math.sin(axis_angle) * _PAULI_X + math.cos(axis_angle) * _PAULI_Z
    return math.cos(angle / 2.0) * np.eye(2, dtype=complex) - 1j * math.sin(angle / 2.0) * n


def euler_x_sequence(angle: float) -> tuple[Rotation, Rotation, Rotation]:
    """The three hardware rotations whose product is euler_x(angle)."""
    wing = Rotation.xz(math.pi / 4.0, math.pi)
    return wing, Rotation.z(angle), wing


def apply_rotation(state: EncodedRegisterState, molecule: int,
                   rotation: Rotation) -> EncodedRegisterState:
    """Apply a single-molecule rotation. Rejected while charge-displaced."""
    _check_molecule(state, molecule)
    if state.charge_flags[molecule] == "02":
        raise ValueError(f"molecule {molecule} is held at +Ec/2; rotations need (1,1)")
    u = rotation.matrix()
    (u00, u01), (u10, u11) = u.tolist()
    psi = molecule_view(state.amplitudes, molecule)
    t, s = psi[:, 0], psi[:, 1]
    # One scratch half and out= writes: np.matmul loops over the 2x2 blocks
    # one at a time, and fresh temporaries per term made the allocator
    # return and re-fault ~2 MiB a call at n=16.
    out = np.empty_like(psi)
    o0, o1 = out[:, 0], out[:, 1]
    w = np.multiply(s, u01)
    np.multiply(t, u00, out=o0)
    o0 += w
    np.multiply(s, u11, out=w)
    np.multiply(t, u10, out=o1)
    o1 += w
    return EncodedRegisterState(out.reshape(-1), state.charge_flags)


def ising_phase(state: EncodedRegisterState, i: int, j: int, phi: float,
                adjacency: frozenset[tuple[int, int]]) -> EncodedRegisterState:
    """Multiply every |...S...S...> amplitude (S at i and j) by e^{i phi}.

    The coupling is mediated by simultaneous charge displacement, so only
    adjacent pairs may interact; non-adjacent pairs are a compile error
    upstream and rejected here.
    """
    _check_pair(state, i, j, adjacency)
    amps = state.amplitudes.copy()
    pair_view(amps, i, j)[:, 1, :, 1] *= np.exp(1j * phi)
    return EncodedRegisterState(amps, state.charge_flags)


def cnot(state: EncodedRegisterState, control: int, target: int,
         adjacency: frozenset[tuple[int, int]]) -> EncodedRegisterState:
    """CNOT as Hadamard(target), Ising pi phase, Hadamard(target)."""
    h = Rotation.hadamard()
    out = apply_rotation(state, target, h)
    out = ising_phase(out, control, target, math.pi, adjacency)
    return apply_rotation(out, target, h)


def _check_molecule(state: EncodedRegisterState, m: int):
    if not 0 <= m < state.n:
        raise ValueError(f"molecule index {m} out of range for n={state.n}")


def _check_pair(state, i, j, adjacency):
    _check_molecule(state, i)
    _check_molecule(state, j)
    if i == j:
        raise ValueError("pair indices must differ")
    if (min(i, j), max(i, j)) not in adjacency:
        raise ValueError(f"molecules {i} and {j} are not adjacent; "
                         "two-molecule operations need adjacency (no routing)")


def align_global_phase(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Return b rotated by the global phase that best matches a."""
    overlap = np.vdot(b, a)
    if abs(overlap) == 0.0:
        return b.copy()
    return b * (overlap / abs(overlap))


def states_equal(a: np.ndarray, b: np.ndarray, tol: float = 1e-10) -> bool:
    """Amplitude-wise equality up to a global phase."""
    return bool(np.max(np.abs(np.asarray(a) - align_global_phase(a, np.asarray(b)))) <= tol)


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
