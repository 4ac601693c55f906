"""Inter-molecule Coulomb couplings for stacked (perpendicular) and
collinear (in-line) dot layouts.

In the perpendicular layout each molecule's two dots are stacked along z
and molecules are spaced b apart in the plane. Displacing one molecule's
charge to its lower dot leaves the pair energy unchanged; only when both
molecules are displaced does the energy shift, which is what makes the
Ising coupling switchable. The in-line layout (all dots on one axis) lacks
that cancellation and leaks a crosstalk energy E onto idle neighbours.
"""
from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .constants import COULOMB_UEV_NM, GAAS_RELATIVE_PERMITTIVITY, HBAR_UEV_NS

# Compiling even a one-gate circuit walks every molecule: a 300x300 grid
# took 1.85 s and 114 MiB, about 20 us and 0.9 KiB per molecule. At 4,096
# molecules (a 64x64 grid, 28x the 12x12 compile benchmark) the whole CLI
# compile run took 0.26 s and 36 MiB.
TOPOLOGY_MOLECULE_LIMIT = 4096


@dataclass(frozen=True)
class Topology:
    """Register connectivity: a line of n molecules or a rows x cols grid.

    Grid indices are row-major; diagonal=True (default) counts diagonal
    neighbours as adjacent, which is what the charge exclusion rules and
    the four-step initialization assume.
    """

    kind: str
    n: int = 0
    rows: int = 0
    cols: int = 0
    diagonal: bool = True

    def __post_init__(self):
        if self.kind == "line":
            if self.n < 1:
                raise ValueError("line topology needs n >= 1")
        elif self.kind == "grid":
            if self.rows < 1 or self.cols < 1:
                raise ValueError("grid topology needs rows, cols >= 1")
        else:
            raise ValueError(f"unknown topology kind {self.kind!r}")
        if self.size > TOPOLOGY_MOLECULE_LIMIT:
            raise ValueError(f"topology has {self.size} molecules; at most "
                             f"{TOPOLOGY_MOLECULE_LIMIT} are supported")

    @staticmethod
    def line(n: int) -> "Topology":
        return Topology(kind="line", n=n)

    @staticmethod
    def grid(rows: int, cols: int, diagonal: bool = True) -> "Topology":
        return Topology(kind="grid", rows=rows, cols=cols, diagonal=diagonal)

    @property
    def size(self) -> int:
        return self.n if self.kind == "line" else self.rows * self.cols

    def coordinates(self, index: int) -> tuple[int, int]:
        """(row, col) of a molecule; lines are a single row."""
        if self.kind == "line":
            return 0, index
        return divmod(index, self.cols)

    def adjacency(self) -> frozenset[tuple[int, int]]:
        """All adjacent index pairs (i, j) with i < j."""
        pairs = set()
        if self.kind == "line":
            pairs.update((i, i + 1) for i in range(self.n - 1))
        else:
            for i in range(self.size):
                r, c = self.coordinates(i)
                for dr, dc in itertools.product((-1, 0, 1), repeat=2):
                    if (dr, dc) == (0, 0):
                        continue
                    if not self.diagonal and dr != 0 and dc != 0:
                        continue
                    rr, cc = r + dr, c + dc
                    if 0 <= rr < self.rows and 0 <= cc < self.cols:
                        j = rr * self.cols + cc
                        pairs.add((min(i, j), max(i, j)))
        return frozenset(pairs)

    def neighbor_table(self) -> tuple[frozenset[int], ...]:
        """Neighbours of every molecule, by index, from one adjacency() pass."""
        table: list[set[int]] = [set() for _ in range(self.size)]
        for i, j in self.adjacency():
            table[i].add(j)
            table[j].add(i)
        return tuple(map(frozenset, table))


@dataclass(frozen=True)
class LayoutGeometry:
    """Physical arrangement of a molecule register.

    intra_dot_distance       a, nm. Dot spacing within one molecule.
    inter_molecule_distance  b, nm. Nearest-dot spacing between molecules.
    layout                   "perpendicular" (stacked dots) or "in_line".
    """

    intra_dot_distance: float = 20.0
    inter_molecule_distance: float = 200.0
    layout: str = "perpendicular"
    topology: Topology = Topology.line(2)
    relative_permittivity: float = GAAS_RELATIVE_PERMITTIVITY

    def __post_init__(self):
        a, b = self.intra_dot_distance, self.inter_molecule_distance
        if not (a > 0 and math.isfinite(a) and b > 0 and math.isfinite(b)):
            raise ValueError("dot distances must be positive and finite")
        # Nearest-neighbour truncation of the interaction needs b >> a.
        if b < 5.0 * a:
            raise ValueError("inter_molecule_distance must be >= 5x intra_dot_distance")
        if b < 10.0 * a:
            warnings.warn("inter_molecule_distance below 10x intra_dot_distance; "
                          "next-nearest-neighbour corrections grow", stacklevel=2)
        if self.layout not in ("perpendicular", "in_line"):
            raise ValueError(f"unknown layout {self.layout!r}")
        if self.layout == "in_line" and self.topology.kind != "line":
            raise ValueError("in_line layout supports only line topologies")
        if not (self.relative_permittivity > 0 and math.isfinite(self.relative_permittivity)):
            raise ValueError("relative_permittivity must be positive and finite")

    @property
    def coulomb_prefactor(self) -> float:
        """Screened e^2/(4 pi eps0 eps_r), ueV*nm."""
        return COULOMB_UEV_NM / self.relative_permittivity


# --- explicit charge coordinates (shared with the multi-level oracle) ---

def dot_positions(g: LayoutGeometry, index: int) -> tuple[np.ndarray, np.ndarray]:
    """Coordinates (nm) of a molecule's two dots.

    Perpendicular: dots stacked along z at the molecule's grid position,
    pitch b. In-line: molecule m occupies x = m*(a+b) and x = m*(a+b)+a,
    so adjacent molecules' nearest dots sit b apart.
    """
    a, b = g.intra_dot_distance, g.inter_molecule_distance
    if g.layout == "perpendicular":
        row, col = g.topology.coordinates(index)
        base = np.array([col * b, row * b, 0.0])
        return base, base + np.array([0.0, 0.0, a])
    x0 = index * (a + b)
    return np.array([x0, 0.0, 0.0]), np.array([x0 + a, 0.0, 0.0])


def charge_sites(g: LayoutGeometry, index: int, doubly_occupied: bool,
                 displacement: int = +1) -> tuple[tuple[float, np.ndarray], ...]:
    """Point charges (units of e) for one molecule's charge configuration.

    (1,1) puts one electron on each dot. The doubly occupied state piles
    both on one dot: the lower dot in the perpendicular layout (the common
    sweep direction), or the dot toward the higher-index (displacement=+1)
    or lower-index (-1) neighbour in the in-line layout.
    """
    first, second = dot_positions(g, index)
    if not doubly_occupied:
        return ((1.0, first), (1.0, second))
    if g.layout == "perpendicular":
        return ((2.0, first),)
    return ((2.0, second if displacement > 0 else first),)


def sites_pair_energy(g: LayoutGeometry, sites_i, sites_j) -> float:
    """Pairwise screened Coulomb energy between two charge groups, ueV."""
    k = g.coulomb_prefactor
    total = 0.0
    for (qa, ra), (qb, rb) in itertools.product(sites_i, sites_j):
        total += k * qa * qb / float(np.linalg.norm(ra - rb))
    return total


# --- perpendicular-layout closed forms ---

def background_interaction(g: LayoutGeometry) -> float:
    """Pair energy with both molecules in (1,1), nearest neighbours.

    Perpendicular closed form k*(2e^2/b + 2e^2/sqrt(a^2+b^2)); the in-line
    value comes from the explicit sum (no simple two-term form).
    """
    a, b, k = g.intra_dot_distance, g.inter_molecule_distance, g.coulomb_prefactor
    if g.layout == "perpendicular":
        return k * (2.0 / b + 2.0 / math.hypot(a, b))
    return sites_pair_energy(g, charge_sites(g, 0, False), charge_sites(g, 1, False))


def doubly_occupied_interaction(g: LayoutGeometry) -> float:
    """Pair energy with both molecules' singlets fully charge-displaced.

    Perpendicular closed form 4*k*e^2/b (both charge pairs on the lower
    layer, separation exactly b). In-line: both pairs displaced toward
    each other, from the explicit sum.
    """
    b, k = g.inter_molecule_distance, g.coulomb_prefactor
    if g.layout == "perpendicular":
        return 4.0 * k / b
    return sites_pair_energy(g, charge_sites(g, 0, True, +1),
                             charge_sites(g, 1, True, -1))


def h_cc(theta: float, g: LayoutGeometry) -> float:
    """Switchable Ising coupling sin^2(theta) * k * (2e^2/b - 2e^2/sqrt(a^2+b^2)).

    Zero when the molecules sit in (1,1) (theta -> 0) and maximal when the
    singlets are fully displaced (|theta| -> pi/2).
    """
    return math.sin(theta) ** 2 * (doubly_occupied_interaction(g)
                                   - background_interaction(g))


@dataclass(frozen=True)
class PairCoupling:
    """Nearest-neighbour energy summary for a geometry."""

    background: float
    doubly_occupied: float
    coupling_max: float

    def __post_init__(self):
        if self.coupling_max <= 0:
            raise ValueError("coupling_max must be positive")
        if not math.isclose(self.coupling_max,
                            self.doubly_occupied - self.background,
                            rel_tol=1e-12, abs_tol=1e-12):
            raise ValueError("coupling_max must equal doubly_occupied - background")


def pair_coupling(g: LayoutGeometry) -> PairCoupling:
    h0 = background_interaction(g)
    hss = doubly_occupied_interaction(g)
    return PairCoupling(h0, hss, hss - h0)


def controlled_phase_hold_time(g: LayoutGeometry) -> float:
    """Nominal pi-phase hold pi*hbar/h_cc_max, ns (odd multiples also work)."""
    return math.pi * HBAR_UEV_NS / pair_coupling(g).coupling_max


def nnn_coupling_ratio(g: LayoutGeometry) -> float:
    """Next-nearest / nearest coupling ratio along a perpendicular line.

    (1/(2b) - 1/sqrt(a^2+4b^2)) / (1/b - 1/sqrt(a^2+b^2)); approaches 1/8
    as a/b -> 0, which is what justifies nearest-neighbour truncation.
    Both differences cancel as b grows, so it is evaluated in r = a/b as
    s1 (s1 + 1) / (8 s2 (s2 + 1)), s1 = sqrt(1 + r^2), s2 = sqrt(1 + r^2/4),
    which has no subtraction.
    """
    if g.layout != "perpendicular":
        raise ValueError("nnn_coupling_ratio needs a perpendicular geometry")
    r = g.intra_dot_distance / g.inter_molecule_distance
    s1, s2 = math.hypot(1.0, r), math.hypot(1.0, r / 2.0)
    return s1 * (s1 + 1.0) / (8.0 * s2 * (s2 + 1.0))


# --- in-line layout energy tables (explicit sums only) ---

def _inline_pair_energy(g: LayoutGeometry, occ_i: str, occ_j: str) -> float:
    """Energy of adjacent in-line molecules (0, 1) for given occupations.

    occ_i in {"11", "02"} (02 displaces toward j); occ_j in {"11", "20"}
    (20 displaces toward i).
    """
    si = charge_sites(g, 0, occ_i == "02", displacement=+1)
    sj = charge_sites(g, 1, occ_j == "20", displacement=-1)
    return sites_pair_energy(g, si, sj)


def inline_interaction(g: LayoutGeometry, charge_i: str = "02",
                       charge_j: str = "20") -> np.ndarray:
    """Diagonal pair energies (TT, TS~, S~T, S~S~) for the in-line layout.

    charge_i/charge_j name the configuration each molecule's hybridized
    singlet is swept to ("11" = not swept). With both swept the diagonal is
    {H0', H0'+E, H0'+E, H0'+E'} with E' > 2E: displacing either singlet
    already shifts the energy, so the coupling is not switchable.
    """
    if g.layout != "in_line":
        raise ValueError("inline_interaction needs an in_line geometry")
    if charge_i not in ("11", "02") or charge_j not in ("11", "20"):
        raise ValueError("charge_i in {'11','02'}, charge_j in {'11','20'}")
    return np.array([
        _inline_pair_energy(g, "11", "11"),
        _inline_pair_energy(g, "11", charge_j),
        _inline_pair_energy(g, charge_i, "11"),
        _inline_pair_energy(g, charge_i, charge_j),
    ])


def inline_crosstalk(g: LayoutGeometry) -> np.ndarray:
    """Unintended pair energies between a gated molecule and an idle neighbour.

    Basis (TT, TS~, S~T, S~S~) with the gated (displaced) molecule in the
    first slot and the bystander in the second. The gate displaces the
    charge away from the bystander, so entries with the gated molecule in
    S~ drop by E: {H0', H0', H0'-E, H0'-E}.
    """
    if g.layout != "in_line":
        raise ValueError("inline_crosstalk needs an in_line geometry")
    # Molecule 1 participates in the (1, 2) gate (displaced toward 2,
    # i.e. away from molecule 0); molecule 0 idles.
    idle = charge_sites(g, 0, False)
    background = sites_pair_energy(g, charge_sites(g, 1, False), idle)
    displaced = sites_pair_energy(g, charge_sites(g, 1, True, +1), idle)
    return np.array([background, background, displaced, displaced])
