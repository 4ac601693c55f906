"""Coulomb couplings checked against the brute-force coordinate oracle."""
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from dotmol import (LayoutGeometry, Topology, background_interaction,
                    controlled_phase_hold_time, doubly_occupied_interaction,
                    h_cc, inline_crosstalk, inline_interaction,
                    nnn_coupling_ratio, pair_coupling)
from dotmol.electrostatics import charge_sites, dot_positions, sites_pair_energy

from coulomb_oracle import (inline_molecule, pairwise_energy,
                            perpendicular_grid_molecule, perpendicular_molecule)

# frozen oracle values at a = 20 nm, b = 200 nm, eps_r = 12.9
H_INT0 = 2226.9563972207566
H_SS = 2232.4961240310076
H_CC_MAX = 5.539726810251068
NNN_RATIO = 0.1257010821436887
T0_HOLD = 0.3732736142286923
INLINE_H0 = 2037.998355649518
INLINE_E = 93.02067183462532
INLINE_E_PRIME = 194.49776838148955


def random_geometry(rng):
    a = rng.uniform(5.0, 50.0)
    b = a * rng.uniform(5.0, 40.0)
    eps_r = rng.uniform(2.0, 20.0)
    return a, b, eps_r


def test_background_matches_oracle_frozen(geometry):
    value = background_interaction(geometry)
    assert math.isclose(value, H_INT0, rel_tol=1e-10)
    oracle = pairwise_energy(perpendicular_molecule(0, 20, 200),
                             perpendicular_molecule(1, 20, 200), 12.9)
    assert math.isclose(value, oracle, rel_tol=1e-12)


def test_doubly_occupied_matches_oracle_frozen(geometry):
    value = doubly_occupied_interaction(geometry)
    assert math.isclose(value, H_SS, rel_tol=1e-10)
    oracle = pairwise_energy(perpendicular_molecule(0, 20, 200, True),
                             perpendicular_molecule(1, 20, 200, True), 12.9)
    assert math.isclose(value, oracle, rel_tol=1e-12)


def test_coupling_max_frozen(geometry):
    assert math.isclose(pair_coupling(geometry).coupling_max, H_CC_MAX,
                        rel_tol=1e-10)


def test_closed_forms_match_oracle_100_geometries():
    import warnings
    rng = np.random.default_rng(42)
    for _ in range(100):
        a, b, eps_r = random_geometry(rng)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            g = LayoutGeometry(intra_dot_distance=a, inter_molecule_distance=b,
                               relative_permittivity=eps_r)
        h0 = pairwise_energy(perpendicular_molecule(0, a, b),
                             perpendicular_molecule(1, a, b), eps_r)
        hss = pairwise_energy(perpendicular_molecule(0, a, b, True),
                              perpendicular_molecule(1, a, b, True), eps_r)
        assert math.isclose(background_interaction(g), h0, rel_tol=1e-10)
        assert math.isclose(doubly_occupied_interaction(g), hss, rel_tol=1e-10)
        theta = rng.uniform(-math.pi / 2, 0.0)
        assert math.isclose(h_cc(theta, g),
                            math.sin(theta) ** 2 * (hss - h0), rel_tol=1e-10)


def test_h_cc_limits_and_halfway(geometry):
    assert h_cc(0.0, geometry) == 0.0
    assert math.isclose(h_cc(-math.pi / 2, geometry), H_CC_MAX, rel_tol=1e-10)
    assert math.isclose(h_cc(math.pi / 4, geometry), H_CC_MAX / 2, rel_tol=1e-10)


def test_h_cc_identity_random_theta():
    rng = np.random.default_rng(7)
    for _ in range(50):
        a, b, eps_r = random_geometry(rng)
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            g = LayoutGeometry(intra_dot_distance=a, inter_molecule_distance=b,
                               relative_permittivity=eps_r)
        theta = rng.uniform(-math.pi, math.pi)
        expected = math.sin(theta) ** 2 * (doubly_occupied_interaction(g)
                                           - background_interaction(g))
        assert math.isclose(h_cc(theta, g), expected, rel_tol=1e-12, abs_tol=1e-15)


def test_coupling_positive_and_decreasing_in_b():
    previous = math.inf
    for b in np.linspace(200.0, 2000.0, 100):
        g = LayoutGeometry(intra_dot_distance=20.0, inter_molecule_distance=b)
        value = pair_coupling(g).coupling_max
        assert 0.0 < value < previous
        previous = value


def test_limits_of_background():
    far = LayoutGeometry(intra_dot_distance=20.0, inter_molecule_distance=1e9)
    assert background_interaction(far) < 1e-2
    # a -> 0 degenerate limit: both dots coincide, H_int0 -> 4*k/b
    small_a = LayoutGeometry(intra_dot_distance=1e-9,
                             inter_molecule_distance=200.0)
    k = small_a.coulomb_prefactor
    assert math.isclose(background_interaction(small_a), 4.0 * k / 200.0,
                        rel_tol=1e-9)


def test_doubly_occupied_scales_as_inverse_b():
    g200 = LayoutGeometry(inter_molecule_distance=200.0)
    g400 = LayoutGeometry(inter_molecule_distance=400.0)
    assert math.isclose(doubly_occupied_interaction(g400),
                        doubly_occupied_interaction(g200) / 2.0, rel_tol=1e-12)
    assert doubly_occupied_interaction(g200) > background_interaction(g200)


def test_hold_time_frozen_and_in_range(geometry):
    t0 = controlled_phase_hold_time(geometry)
    assert math.isclose(t0, T0_HOLD, rel_tol=1e-10)
    assert 0.1 <= t0 <= 10.0


def test_nnn_ratio(geometry):
    assert math.isclose(nnn_coupling_ratio(geometry), NNN_RATIO, rel_tol=1e-10)
    for a in np.linspace(5.0, 40.0, 10):
        for factor in np.linspace(10.0, 40.0, 10):
            g = LayoutGeometry(intra_dot_distance=a,
                               inter_molecule_distance=a * factor)
            assert nnn_coupling_ratio(g) < 0.15
    thin = LayoutGeometry(intra_dot_distance=0.1, inter_molecule_distance=200.0)
    assert math.isclose(nnn_coupling_ratio(thin), 0.125, rel_tol=1e-6)


def nnn_ratio_reference(a: float, b: float) -> Decimal:
    """The defining differences, (1/(2b) - 1/sqrt(a^2+4b^2)) / (1/b -
    1/sqrt(a^2+b^2)), in 50-digit decimal arithmetic: they cancel about
    2 log10(b/a) digits, so b/a up to 1e9 keeps 30 of them."""
    with localcontext() as ctx:
        ctx.prec = 50
        a, b = Decimal(a), Decimal(b)
        near = 1 / b - 1 / (a * a + b * b).sqrt()
        far = 1 / (2 * b) - 1 / (a * a + 4 * b * b).sqrt()
        return far / near


@pytest.mark.parametrize("a", [5.0, 20.0, 50.0])
def test_nnn_ratio_has_no_cancellation(a):
    # the subtractions in the definition lost digits as b grew: at a = 20 nm
    # they gave 0.12500000529 at 1e5 nm, 0.1281 at 1e8 nm and 0.0 at 1e9 nm
    for b in [1e3, 1e5, 1e8, 1e9, 1e10, *np.geomspace(10.0 * a, 1e10, 40).tolist()]:
        got = nnn_coupling_ratio(LayoutGeometry(intra_dot_distance=a,
                                                inter_molecule_distance=b))
        want = nnn_ratio_reference(a, b)
        assert abs(Decimal(got) - want) <= Decimal("1e-15") * want, (a, b, got)


def test_nnn_ratio_matches_oracle(geometry):
    a, b, eps_r = 20.0, 200.0, 12.9
    near = (pairwise_energy(perpendicular_molecule(0, a, b, True),
                            perpendicular_molecule(1, a, b, True), eps_r)
            - pairwise_energy(perpendicular_molecule(0, a, b),
                              perpendicular_molecule(1, a, b), eps_r))
    far = (pairwise_energy(perpendicular_molecule(0, a, b, True),
                           perpendicular_molecule(2, a, b, True), eps_r)
           - pairwise_energy(perpendicular_molecule(0, a, b),
                             perpendicular_molecule(2, a, b), eps_r))
    assert math.isclose(nnn_coupling_ratio(geometry), far / near, rel_tol=1e-10)


def inline_geometry():
    return LayoutGeometry(layout="in_line", topology=Topology.line(3))


def test_inline_interaction_structure():
    g = inline_geometry()
    tt, ts, st, ss = inline_interaction(g)
    assert math.isclose(tt, INLINE_H0, rel_tol=1e-10)
    assert math.isclose(ts - tt, INLINE_E, rel_tol=1e-10)
    assert math.isclose(st - tt, INLINE_E, rel_tol=1e-10)
    assert math.isclose(ss - tt, INLINE_E_PRIME, rel_tol=1e-10)
    # moving charge toward the neighbour raises the energy; the joint
    # displacement shifts by more than the two singles combined
    assert ts - tt > 0
    assert ss - tt > 2 * (ts - tt)


def test_inline_interaction_matches_oracle():
    g = inline_geometry()
    a, b, eps_r = 20.0, 200.0, 12.9
    expected = [
        pairwise_energy(inline_molecule(0, a, b), inline_molecule(1, a, b), eps_r),
        pairwise_energy(inline_molecule(0, a, b), inline_molecule(1, a, b, -1), eps_r),
        pairwise_energy(inline_molecule(0, a, b, +1), inline_molecule(1, a, b), eps_r),
        pairwise_energy(inline_molecule(0, a, b, +1), inline_molecule(1, a, b, -1), eps_r),
    ]
    assert np.allclose(inline_interaction(g), expected, rtol=1e-12)


def test_inline_idle_pair_is_flat():
    g = inline_geometry()
    values = inline_interaction(g, charge_i="11", charge_j="11")
    assert np.allclose(values, values[0], rtol=1e-15)


def test_inline_crosstalk_vector():
    g = inline_geometry()
    values = inline_crosstalk(g)
    deltas = values - values[0]
    assert deltas[0] == deltas[1] == 0.0
    assert math.isclose(deltas[2], -INLINE_E, rel_tol=1e-10)
    assert math.isclose(deltas[3], -INLINE_E, rel_tol=1e-10)
    assert abs(deltas[2]) > 0  # the in-line layout always leaks onto idlers


def test_inline_crosstalk_matches_oracle():
    g = inline_geometry()
    a, b, eps_r = 20.0, 200.0, 12.9
    idle = inline_molecule(0, a, b)
    background = pairwise_energy(inline_molecule(1, a, b), idle, eps_r)
    displaced = pairwise_energy(inline_molecule(1, a, b, +1), idle, eps_r)
    assert np.allclose(inline_crosstalk(g),
                       [background, background, displaced, displaced],
                       rtol=1e-12)


def test_inline_crosstalk_vanishes_at_distance():
    g = LayoutGeometry(layout="in_line", inter_molecule_distance=1e8,
                       topology=Topology.line(3))
    values = inline_crosstalk(g)
    assert abs(values[2] - values[0]) < 1e-6


def test_perpendicular_bystander_is_exactly_flat(line3):
    # one molecule displaced, the other idle: identical pair energy either way
    idle = charge_sites(line3, 0, False)
    assert sites_pair_energy(line3, charge_sites(line3, 1, False), idle) == \
        pytest.approx(sites_pair_energy(line3, charge_sites(line3, 1, True), idle),
                      rel=1e-15)


def test_layout_routing_rejections(geometry):
    with pytest.raises(ValueError):
        inline_interaction(geometry)  # perpendicular
    with pytest.raises(ValueError):
        inline_crosstalk(geometry)
    inline = inline_geometry()
    with pytest.raises(ValueError):
        inline_interaction(inline, charge_i="20")


def test_geometry_validation():
    with pytest.raises(ValueError):
        LayoutGeometry(intra_dot_distance=50.0, inter_molecule_distance=100.0)
    with pytest.warns(UserWarning):
        LayoutGeometry(intra_dot_distance=25.0, inter_molecule_distance=200.0)
    with pytest.raises(ValueError):
        LayoutGeometry(layout="diagonal")
    with pytest.raises(ValueError):
        LayoutGeometry(layout="in_line", topology=Topology.grid(2, 2))
    with pytest.raises(ValueError):
        LayoutGeometry(relative_permittivity=0.0)


def test_topology_adjacency():
    line = Topology.line(5)
    assert line.adjacency() == frozenset({(0, 1), (1, 2), (2, 3), (3, 4)})
    assert line.neighbor_table()[2] == frozenset({1, 3})
    assert Topology.grid(2, 3, diagonal=False).neighbor_table() == (
        frozenset({1, 3}), frozenset({0, 2, 4}), frozenset({1, 5}),
        frozenset({0, 4}), frozenset({1, 3, 5}), frozenset({2, 4}))

    grid = Topology.grid(2, 2, diagonal=False)
    assert grid.adjacency() == frozenset({(0, 1), (0, 2), (1, 3), (2, 3)})
    king = Topology.grid(2, 2, diagonal=True)
    assert king.adjacency() == frozenset(
        {(0, 1), (0, 2), (1, 3), (2, 3), (0, 3), (1, 2)})

    with pytest.raises(ValueError):
        Topology.line(0)
    with pytest.raises(ValueError):
        Topology.grid(0, 3)
    with pytest.raises(ValueError):
        Topology(kind="ring", n=4)


def test_grid_positions_match_grid_oracle():
    g = LayoutGeometry(topology=Topology.grid(2, 3))
    for index in range(6):
        row, col = g.topology.coordinates(index)
        expected = perpendicular_grid_molecule(row, col, 20.0, 200.0)
        actual = charge_sites(g, index, False)
        for (qe, re_), (qa, ra) in zip(expected, actual):
            assert qe == qa
            assert np.allclose(re_, ra)


def test_dot_positions_inline_spacing():
    g = inline_geometry()
    lower0, upper0 = dot_positions(g, 0)
    lower1, upper1 = dot_positions(g, 1)
    # adjacent molecules' nearest dots sit exactly b apart
    assert math.isclose(np.linalg.norm(lower1 - upper0), 200.0)
    assert math.isclose(np.linalg.norm(upper0 - lower0), 20.0)
