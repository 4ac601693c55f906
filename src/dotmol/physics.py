"""Single-molecule detuning physics.

A molecule is two vertically coupled quantum dots sharing two electrons.
The qubit lives in the singlet/triplet pair {|T(1,1)>, |S(1,1)>}; the
detuning eps tilts the double-well so the singlet hybridizes with the
doubly occupied |S(0,2)> charge state through the tunnel coupling Tc.
All energies in ueV, times in ns (see constants).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import HBAR_UEV_NS, MU_B_UEV_PER_T


@dataclass(frozen=True)
class MoleculeParams:
    """Device parameters shared by every molecule in a register.

    tunnel_coupling  Tc, ueV. Inter-dot tunneling within one molecule.
    charging_energy  Ec, ueV. Detuning is usable over [-Ec/2, +Ec/2].
    g_factor         effective electron g-factor (dimensionless).
    nuclear_field    r.m.s. nuclear Overhauser field, mT.
    coherence_time   bare T2 of the encoded qubit, ns.
    """

    tunnel_coupling: float = 10.0
    charging_energy: float = 5000.0
    g_factor: float = 0.44
    nuclear_field: float = 3.0
    coherence_time: float = 10.0

    def __post_init__(self):
        if not (self.tunnel_coupling > 0 and math.isfinite(self.tunnel_coupling)):
            raise ValueError("tunnel_coupling must be positive and finite")
        if not (self.charging_energy > 0 and math.isfinite(self.charging_energy)):
            raise ValueError("charging_energy must be positive and finite")
        # Stay in the weak-tunneling regime: the mixing-angle picture assumes
        # the anticrossing is narrow compared to the detuning range.
        if self.tunnel_coupling >= self.charging_energy / 10.0:
            raise ValueError("tunnel_coupling must be below charging_energy/10")
        if self.nuclear_field < 0 or not math.isfinite(self.nuclear_field):
            raise ValueError("nuclear_field must be >= 0 and finite")
        if not math.isfinite(self.g_factor):
            raise ValueError("g_factor must be finite")
        if not (self.coherence_time > 0 and math.isfinite(self.coherence_time)):
            raise ValueError("coherence_time must be positive and finite")

    @property
    def detuning_min(self) -> float:
        return -self.charging_energy / 2.0

    @property
    def detuning_max(self) -> float:
        return +self.charging_energy / 2.0

    @property
    def nuclear_mixing_time(self) -> float:
        """hbar / (g* mu_B B_nuc), ns. Infinite for zero nuclear field."""
        zeeman = self.g_factor * MU_B_UEV_PER_T * self.nuclear_field * 1e-3
        if zeeman == 0.0:
            return math.inf
        return HBAR_UEV_NS / zeeman


def adiabatic_angle(eps, tc):
    """Charge mixing angle theta = arctan(2*Tc / (eps - sqrt(4*Tc^2 + eps^2))).

    The denominator is strictly negative for Tc > 0, so theta lies in
    (-pi/2, 0): theta -> 0- deep in (1,1) (eps << 0) and theta -> -pi/2
    as the doubly occupied state takes over (eps -> +Ec/2). Accepts scalars
    or arrays.
    """
    eps = np.asarray(eps, dtype=float)
    if tc <= 0 or not math.isfinite(tc):
        raise ValueError("tunnel coupling must be positive and finite")
    if not np.all(np.isfinite(eps)):
        raise ValueError("detuning must be finite")
    theta = np.arctan(2.0 * tc / (eps - np.hypot(eps, 2.0 * tc)))
    return theta if theta.ndim else float(theta)


def sin_sq_mixing(eps, tc):
    """Doubly-occupied weight sin^2(theta) of the hybridized singlet."""
    return np.sin(adiabatic_angle(eps, tc)) ** 2


def hybridized_states(theta):
    """Hybridized singlet pair in the {|S(1,1)>, |S(0,2)>} basis.

    Returns (|S~>, |G~>) = ((cos t, sin t), (-sin t, cos t)). |S~> is the
    branch adiabatically connected to |S(1,1)> at far negative detuning.
    """
    c, s = math.cos(theta), math.sin(theta)
    return np.array([c, s]), np.array([-s, c])


def charge_hamiltonian(eps: float, tc: float) -> np.ndarray:
    """Two-level singlet charge Hamiltonian in the {|S(1,1)>, |S(0,2)>} basis.

    Raising eps lowers the doubly occupied state: diag(+eps/2, -eps/2) with
    real tunnel coupling Tc off-diagonal. hybridized_states(adiabatic_angle)
    are its eigenvectors, |S~> on the lower branch.
    """
    return np.array([[+eps / 2.0, tc], [tc, -eps / 2.0]])


def charge_branch_energies(eps: float, tc: float) -> tuple[float, float]:
    """Eigenvalues -/+ sqrt(eps^2/4 + Tc^2) of the singlet charge Hamiltonian.

    The gap at eps = 0 is 2*Tc. Ordered (lower, upper) = (|S~>, |G~>).
    """
    root = math.hypot(eps / 2.0, tc)
    return -root, +root


@dataclass(frozen=True)
class SweepWindow:
    """Allowed full-sweep duration range for rapid adiabatic passage.

    A -Ec/2 -> +Ec/2 sweep must be slow against the tunnel coupling
    (duration >= min_duration) yet fast against nuclear spin mixing
    (duration <= max_duration). max_duration is inf at zero nuclear field.
    """

    min_duration: float
    max_duration: float

    @property
    def is_empty(self) -> bool:
        return self.min_duration >= self.max_duration


def sweep_rate_window(params: MoleculeParams, safety_factor: float = 10.0) -> SweepWindow:
    """Duration window for a full detuning sweep.

    min = safety * hbar/Tc, max = (1/safety) * hbar/(g* mu_B B_nuc). An
    empty window (min >= max) is reported as such, never silently clamped.
    """
    if safety_factor < 1.0:
        raise ValueError("safety_factor must be >= 1")
    lo = safety_factor * HBAR_UEV_NS / params.tunnel_coupling
    hi = params.nuclear_mixing_time / safety_factor
    return SweepWindow(lo, hi)


@dataclass(frozen=True)
class DetuningWaveform:
    """Piecewise-linear detuning schedule eps(t).

    times are strictly increasing (ns), detunings in ueV. Waveforms begin
    and end at the idle point -Ec/2 unless measurement_hold is set (the
    range itself depends on Ec, so both range and endpoint checks live in
    validate_waveform).
    """

    times: tuple[float, ...]
    detunings: tuple[float, ...]
    measurement_hold: bool = False

    def __post_init__(self):
        times = tuple(float(t) for t in self.times)
        detunings = tuple(float(e) for e in self.detunings)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "detunings", detunings)
        if len(times) != len(detunings):
            raise ValueError("times and detunings must have equal length")
        if len(times) < 2:
            raise ValueError("waveform needs at least two breakpoints")
        if not all(map(math.isfinite, times + detunings)):
            raise ValueError("waveform breakpoints must be finite")
        if any(t1 <= t0 for t0, t1 in zip(times, times[1:])):
            raise ValueError("waveform times must be strictly increasing")

    @property
    def duration(self) -> float:
        return self.times[-1] - self.times[0]

    def detuning_at(self, t):
        """Piecewise-linear eps(t); clamps outside [t0, t_end]."""
        return np.interp(t, self.times, self.detunings)

    def segments(self):
        """Yield (t0, t1, eps0, eps1) for each linear piece."""
        for i in range(len(self.times) - 1):
            yield (self.times[i], self.times[i + 1],
                   self.detunings[i], self.detunings[i + 1])


def full_sweep(params: MoleculeParams, duration: float,
               reverse: bool = False) -> DetuningWaveform:
    """Single linear ramp across the full range -Ec/2 -> +Ec/2 (or back).

    One-way sweeps are the measurement excursion (they end, or start, at
    the charge-sensitive point), so they carry the measurement_hold flag.
    """
    lo, hi = params.detuning_min, params.detuning_max
    if reverse:
        lo, hi = hi, lo
    return DetuningWaveform((0.0, duration), (lo, hi), measurement_hold=True)


def square_pulse(params: MoleculeParams, ramp: float, hold: float) -> DetuningWaveform:
    """Ramp to +Ec/2, hold, ramp back. The workhorse gate waveform."""
    lo, hi = params.detuning_min, params.detuning_max
    return DetuningWaveform(
        (0.0, ramp, ramp + hold, 2.0 * ramp + hold),
        (lo, hi, hi, lo),
    )


def hold_at(eps: float, duration: float, measurement_hold: bool = False) -> DetuningWaveform:
    return DetuningWaveform((0.0, duration), (eps, eps), measurement_hold=measurement_hold)


@dataclass(frozen=True)
class WaveformViolation:
    segment: int
    t_start: float
    t_end: float
    reason: str
    message: str


def validate_waveform(w: DetuningWaveform, params: MoleculeParams,
                      safety_factor: float = 10.0) -> list[WaveformViolation]:
    """Check a waveform against range, endpoint and sweep-rate constraints.

    Each linear segment's |deps/dt| is converted to the duration an entire
    -Ec/2 -> +Ec/2 sweep would take at that rate and compared against
    sweep_rate_window. Constant holds are exempt from the rate check.
    Returns a report list; an empty list means valid.
    """
    window = sweep_rate_window(params, safety_factor)
    span = params.charging_energy
    out: list[WaveformViolation] = []
    lo, hi = params.detuning_min, params.detuning_max
    for i, (t0, t1, e0, e1) in enumerate(w.segments()):
        if min(e0, e1) < lo - 1e-9 or max(e0, e1) > hi + 1e-9:
            out.append(WaveformViolation(
                i, t0, t1, "detuning_out_of_range",
                f"segment {i} leaves [{lo:g}, {hi:g}] ueV"))
        rate = abs(e1 - e0) / (t1 - t0)
        if rate == 0.0:
            continue
        equivalent = span / rate
        if equivalent < window.min_duration:
            out.append(WaveformViolation(
                i, t0, t1, "too_fast",
                f"segment {i} violates adiabaticity with respect to Tc "
                f"(full-sweep-equivalent {equivalent:.3g} ns < {window.min_duration:.3g} ns)"))
        elif equivalent > window.max_duration:
            out.append(WaveformViolation(
                i, t0, t1, "too_slow",
                f"segment {i} is slow against nuclear mixing "
                f"(full-sweep-equivalent {equivalent:.3g} ns > {window.max_duration:.3g} ns)"))
    if not w.measurement_hold:
        for label, value in (("start", w.detunings[0]), ("end", w.detunings[-1])):
            if not math.isclose(value, lo, rel_tol=0.0, abs_tol=1e-9):
                out.append(WaveformViolation(
                    0 if label == "start" else len(w.detunings) - 2,
                    w.times[0], w.times[-1], "endpoint_not_idle",
                    f"waveform must {label} at the idle detuning {lo:g} ueV"))
    return out
