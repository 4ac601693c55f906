"""Charge-resolved 3^n oracle used by the tests.

Tracks 3^n amplitudes over {|T(1,1)>, |S(1,1)>, |S(0,2)>} per molecule and
accumulates phases from explicit pairwise Coulomb sums, with each singlet's
charge amplitudes slaved to (cos theta(t), sin theta(t)). It shares no
phase code with the encoded register: its time integrals are adaptive
quadrature. The encoded 2^n model must agree with it wherever the encoded
picture claims to be exact.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from dotmol.constants import HBAR_UEV_NS
from dotmol.electrostatics import LayoutGeometry, charge_sites, sites_pair_energy
from dotmol.physics import adiabatic_angle, sin_sq_mixing
from dotmol.register import EncodedRegisterState

ORACLE_MOLECULE_LIMIT = 4


@dataclass(frozen=True)
class OracleState:
    """3^n amplitudes over {|T(1,1)> = 0, |S(1,1)> = 1, |S(0,2)> = 2}.

    Same row-major molecule ordering as the encoded register. Capped at
    four molecules; beyond that the oracle has no business running.
    """

    amplitudes: np.ndarray
    n: int

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        object.__setattr__(self, "amplitudes", amps)
        if self.n < 1 or self.n > ORACLE_MOLECULE_LIMIT:
            raise ValueError(f"oracle supports 1..{ORACLE_MOLECULE_LIMIT} molecules")
        if amps.shape != (3 ** self.n,):
            raise ValueError(f"need 3^{self.n} amplitudes, got shape {amps.shape}")
        norm = float(np.sum(np.abs(amps) ** 2))
        if abs(norm - 1.0) > 1e-10:
            raise ValueError(f"state norm^2 = {norm!r} is not 1 within 1e-10")


def _molecule_vectors(thetas) -> list[np.ndarray]:
    """Per-molecule (v_T, v_S~) triples-basis vectors at the given angles."""
    out = []
    for th in thetas:
        v_t = np.array([1.0, 0.0, 0.0], dtype=complex)
        v_s = np.array([0.0, math.cos(th), math.sin(th)], dtype=complex)
        out.append(np.stack([v_t, v_s]))
    return out


def _product_basis(thetas, n) -> np.ndarray:
    """(2^n, 3^n) matrix of product vectors for every logical string."""
    vecs = _molecule_vectors(thetas)
    rows = []
    for string in range(2 ** n):
        v = np.array([1.0], dtype=complex)
        for m in range(n):
            bit = (string >> (n - 1 - m)) & 1
            v = np.kron(v, vecs[m][bit])
        rows.append(v)
    return np.stack(rows)


def oracle_from_encoded(state: EncodedRegisterState, tc: float,
                        detunings) -> OracleState:
    """Embed an encoded state with each singlet hybridized at its detuning."""
    thetas = [adiabatic_angle(e, tc) for e in detunings]
    basis = _product_basis(thetas, state.n)
    return OracleState(state.amplitudes @ basis, state.n)


def oracle_to_encoded(oracle: OracleState, tc: float, detunings,
                      leakage_tol: float = 1e-9) -> np.ndarray:
    """Project back onto logical amplitudes; reject unexplained leakage."""
    thetas = [adiabatic_angle(e, tc) for e in detunings]
    basis = _product_basis(thetas, oracle.n)
    logical = basis.conj() @ oracle.amplitudes
    residual = float(np.sum(np.abs(oracle.amplitudes) ** 2) - np.sum(np.abs(logical) ** 2))
    if residual > leakage_tol:
        raise ValueError(f"oracle state has leakage {residual!r} outside the "
                         "adiabatic product basis")
    return logical


def oracle_evolve(oracle: OracleState, g: LayoutGeometry, tc: float,
                  waveforms, duration: float | None = None,
                  displacements=None) -> OracleState:
    """Evolve the 3^n state under the full pairwise Coulomb Hamiltonian.

    Each molecule m follows waveforms[m]; its singlet charge amplitudes are
    slaved to (cos theta_m(t), sin theta_m(t)) and every logical string
    accumulates exp(+i/hbar * integral of its summed pair energies), the
    energies coming from explicit charge-coordinate sums over all molecule
    pairs (no nearest-neighbour truncation here). displacements gives the
    in-line charge direction per molecule (+1 toward the higher index).
    """
    n = oracle.n
    if len(waveforms) != n:
        raise ValueError(f"need one waveform per molecule ({n})")
    if displacements is None:
        displacements = [+1] * n
    if duration is None:
        duration = max(w.times[-1] for w in waveforms)

    theta0 = [adiabatic_angle(w.detuning_at(0.0), tc) for w in waveforms]
    theta1 = [adiabatic_angle(w.detuning_at(duration), tc) for w in waveforms]
    logical = _product_basis(theta0, n).conj() @ oracle.amplitudes
    residual = float(np.sum(np.abs(oracle.amplitudes) ** 2) - np.sum(np.abs(logical) ** 2))
    if residual > 1e-9:
        raise ValueError(f"initial oracle state has leakage {residual!r} outside "
                         "the adiabatic product basis at t=0")

    # Per-pair charge-sector energies and occupation integrals. s_m(t) is
    # the molecule's (0,2) weight sin^2(theta_m); a pair's expected energy
    # is bilinear in (1-s, s) of each side, so three integrals per pair
    # (I_i, I_j, I_ij) cover every logical combination.
    weights = [lambda t, w=w: sin_sq_mixing(w.detuning_at(t), tc) for w in waveforms]
    breakpoints = sorted({0.0, duration, *(
        float(t) for w in waveforms for t in w.times if 0.0 < t < duration)})

    def integrate(f):
        total = 0.0
        for t0, t1 in zip(breakpoints, breakpoints[1:]):
            val, _ = quad(f, t0, t1, epsabs=1e-13, epsrel=1e-10, limit=200)
            total += val
        return total

    pair_terms = {}
    for i in range(n):
        for j in range(i + 1, n):
            sites = {}
            for m, occ in ((i, False), (i, True), (j, False), (j, True)):
                sites[(m, occ)] = charge_sites(g, m, occ, displacements[m])
            e = {(oi, oj): sites_pair_energy(g, sites[(i, oi)], sites[(j, oj)])
                 for oi in (False, True) for oj in (False, True)}
            integrals = {
                "i": integrate(weights[i]),
                "j": integrate(weights[j]),
                "ij": integrate(lambda t: weights[i](t) * weights[j](t)),
            }
            pair_terms[(i, j)] = (e, integrals)

    phases = np.zeros(2 ** n)
    for string in range(2 ** n):
        total = 0.0
        for (i, j), (e, integ) in pair_terms.items():
            si = (string >> (n - 1 - i)) & 1
            sj = (string >> (n - 1 - j)) & 1
            total += duration * e[(False, False)]
            if si:
                total += integ["i"] * (e[(True, False)] - e[(False, False)])
            if sj:
                total += integ["j"] * (e[(False, True)] - e[(False, False)])
            if si and sj:
                total += integ["ij"] * (e[(True, True)] - e[(True, False)]
                                        - e[(False, True)] + e[(False, False)])
        phases[string] = total / HBAR_UEV_NS

    evolved = logical * np.exp(1j * phases)
    return OracleState(evolved @ _product_basis(theta1, n), n)
