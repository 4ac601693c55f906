"""Encoded register operations and the 3-level-per-molecule oracle."""
import math

import numpy as np
import pytest
from scipy.integrate import quad

from charge_oracle import (OracleState, detuning_at, hold_at, oracle_evolve,
                           oracle_from_encoded, oracle_to_encoded, square_pulse)
from schedule_reference import align_global_phase, state_json, states_equal
from dotmol import (DetuningWaveform, EncodedRegisterState, LayoutGeometry,
                    MoleculeParams, Rotation, Topology, apply_rotation,
                    controlled_phase_hold_time, full_sweep, ising_phase,
                    molecule_probabilities, pair_coupling, phase_from_waveform,
                    product_state, sin_sq_mixing)
from dotmol.constants import HBAR_UEV_NS
from dotmol.register import cnot

LINE2 = Topology.line(2).adjacency()
LINE3 = Topology.line(3).adjacency()


def test_product_state_and_probabilities():
    state = product_state("TS")
    assert state.n == 2
    assert np.allclose(state.amplitudes, [0, 1, 0, 0])
    assert molecule_probabilities(state, 0) == (1.0, 0.0)
    assert molecule_probabilities(state, 1) == (0.0, 1.0)
    assert state_json(state) == [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
    with pytest.raises(ValueError):
        product_state("TX")
    with pytest.raises(ValueError):
        product_state("")


def test_state_validation():
    with pytest.raises(ValueError):
        EncodedRegisterState(np.array([1.0, 1.0]))  # unnormalized
    with pytest.raises(ValueError):
        EncodedRegisterState(np.array([1.0, 0.0, 0.0]))  # bad shape


# n is read off the amplitude count, so only a flat vector of 2^n passes;
# the (2, 2) and six-entry arrays are normalized and fail on shape alone
@pytest.mark.parametrize("amps", [np.array([1.0, 0.0, 0.0]), np.eye(2) / math.sqrt(2),
                                  np.array([]), np.full(6, 1 / math.sqrt(6))],
                         ids=["three", "two_by_two", "empty", "six"])
def test_state_refuses_counts_that_are_not_a_power_of_two(amps):
    with pytest.raises(ValueError, match=r"need 2\^n amplitudes"):
        EncodedRegisterState(amps)


def test_state_n_is_the_log2_of_the_amplitude_count():
    assert EncodedRegisterState(np.array([1.0])).n == 0
    for n in range(1, 6):
        amps = np.zeros(2 ** n)
        amps[-1] = 1.0
        assert EncodedRegisterState(amps).n == n
        assert product_state("S" * n).n == n


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_state_refuses_non_finite_amplitudes(value):
    # the norm of such a state is NaN, which no tolerance comparison rejects
    with pytest.raises(ValueError, match="is not 1 within 1e-10"):
        EncodedRegisterState(np.array([value, 0.0]))


def test_rotation_matrices_unitary():
    rng = np.random.default_rng(5)
    rotations = [Rotation.hadamard()]
    for _ in range(100):
        kind = rng.choice(["uz", "uxz"])
        rotations.append(Rotation(kind, angle=rng.uniform(-7, 7),
                                  axis_angle=rng.uniform(-math.pi, math.pi)))
    for rot in rotations:
        u = rot.matrix()
        assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-12


def test_uz_full_turn_is_identity_up_to_phase():
    rng = np.random.default_rng(6)
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    amps /= np.linalg.norm(amps)
    state = EncodedRegisterState(amps)
    turned = apply_rotation(state, 0, Rotation.z(2 * math.pi))
    assert states_equal(state.amplitudes, turned.amplitudes, tol=1e-12)
    assert np.allclose(np.abs(turned.amplitudes) ** 2,
                       np.abs(state.amplitudes) ** 2)


def test_hadamard_on_t():
    state = apply_rotation(product_state("T"), 0, Rotation.hadamard())
    assert np.allclose(state.amplitudes, [1 / math.sqrt(2), 1 / math.sqrt(2)])


def test_ising_phase_truth_table():
    for labels, flips in (("TT", False), ("TS", False), ("ST", False), ("SS", True)):
        state = ising_phase(product_state(labels), 0, 1, math.pi, LINE2)
        expected = product_state(labels).amplitudes * (-1 if flips else 1)
        assert np.allclose(state.amplitudes, expected)


def test_ising_phase_zero_is_identity(rng):
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    amps /= np.linalg.norm(amps)
    state = EncodedRegisterState(amps)
    assert np.allclose(ising_phase(state, 0, 1, 0.0, LINE2).amplitudes, amps)


def test_ising_phase_sends_phi_plus_to_phi_minus():
    sq = 1 / math.sqrt(2)
    phi_plus = EncodedRegisterState(np.array([sq, 0, 0, sq]))
    out = ising_phase(phi_plus, 0, 1, math.pi, LINE2)
    assert np.allclose(out.amplitudes, [sq, 0, 0, -sq])


def test_ising_phase_requires_adjacency():
    state = product_state("SSS")
    with pytest.raises(ValueError):
        ising_phase(state, 0, 2, math.pi, LINE3)
    with pytest.raises(ValueError):
        ising_phase(state, 0, 0, math.pi, LINE3)


def test_ising_phase_disjoint_pairs_commute(rng):
    adjacency = Topology.line(4).adjacency()
    amps = rng.normal(size=16) + 1j * rng.normal(size=16)
    amps /= np.linalg.norm(amps)
    state = EncodedRegisterState(amps)
    ab = ising_phase(ising_phase(state, 0, 1, 0.7, adjacency), 2, 3, 1.9, adjacency)
    ba = ising_phase(ising_phase(state, 2, 3, 1.9, adjacency), 0, 1, 0.7, adjacency)
    assert np.max(np.abs(ab.amplitudes - ba.amplitudes)) < 1e-12


def test_cnot_truth_table():
    assert np.allclose(cnot(product_state("TT"), 0, 1, LINE2).amplitudes,
                       product_state("TT").amplitudes)
    assert states_equal(cnot(product_state("ST"), 0, 1, LINE2).amplitudes,
                        product_state("SS").amplitudes)
    assert states_equal(cnot(product_state("SS"), 0, 1, LINE2).amplitudes,
                        product_state("ST").amplitudes)


def test_cnot_involution(rng):
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    amps /= np.linalg.norm(amps)
    state = EncodedRegisterState(amps)
    twice = cnot(cnot(state, 0, 1, LINE2), 0, 1, LINE2)
    assert states_equal(state.amplitudes, twice.amplitudes, tol=1e-10)


def test_cnot_matrix_matches_canonical():
    canonical = np.eye(4, dtype=complex)[[0, 1, 3, 2]]
    columns = []
    for labels in ("TT", "TS", "ST", "SS"):
        columns.append(cnot(product_state(labels), 0, 1, LINE2).amplitudes)
    built = np.stack(columns, axis=1)
    overlap = np.trace(built.conj().T @ canonical) / 4
    phase = overlap / abs(overlap)
    assert np.linalg.norm(built * phase - canonical) < 1e-10


def test_norm_preserved_over_1000_random_operations():
    rng = np.random.default_rng(123)
    adjacency = Topology.line(4).adjacency()
    amps = rng.normal(size=16) + 1j * rng.normal(size=16)
    amps /= np.linalg.norm(amps)
    state = EncodedRegisterState(amps)
    for _ in range(1000):
        if rng.random() < 0.5:
            kind = rng.choice(["uz", "uxz", "hadamard"])
            rot = Rotation(kind, angle=rng.uniform(-7, 7),
                           axis_angle=rng.uniform(-math.pi, math.pi))
            state = apply_rotation(state, int(rng.integers(4)), rot)
        else:
            i = int(rng.integers(3))
            state = ising_phase(state, i, i + 1, rng.uniform(-7, 7), adjacency)
    assert abs(np.sum(np.abs(state.amplitudes) ** 2) - 1.0) < 1e-10


def test_align_and_states_equal(rng):
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    amps /= np.linalg.norm(amps)
    rotated = amps * np.exp(1j * 0.83)
    assert states_equal(amps, rotated, tol=1e-12)
    aligned = align_global_phase(amps, rotated)
    assert np.max(np.abs(aligned - amps)) < 1e-12
    assert not states_equal(amps, np.roll(amps, 1))


# --- Ising phase integral ---

def quad_phase(w, g, tc):
    """Reference Ising phase: adaptive quadrature of sin^2(theta) per segment."""
    total = sum(quad(lambda t: sin_sq_mixing(detuning_at(w, t), tc), t0, t1,
                     epsabs=0.0, epsrel=1e-12, limit=200)[0]
                for t0, t1, _, _ in w.segments())
    return pair_coupling(g).coupling_max * total / HBAR_UEV_NS


def test_phase_is_zero_at_idle(geometry, params):
    # the idle coupling is the residual doubly-occupied weight 4*Tc^2/Ec^2,
    # nonzero but exactly computable
    coupling = pair_coupling(geometry).coupling_max
    w = hold_at(params.detuning_min, 10.0)
    phi = phase_from_waveform(w, geometry, params.tunnel_coupling)
    expected = coupling * 10.0 * float(
        sin_sq_mixing(params.detuning_min, params.tunnel_coupling)) / HBAR_UEV_NS
    assert math.isclose(phi, expected, rel_tol=1e-10)
    assert phi < 2e-3
    # deep in the weak-tunneling regime the residual is truly negligible
    weak = MoleculeParams(tunnel_coupling=0.1)
    phi = phase_from_waveform(hold_at(weak.detuning_min, 10.0), geometry, 0.1)
    assert phi < 1e-6


def test_phase_of_nominal_hold_is_pi(geometry, params):
    t0 = controlled_phase_hold_time(geometry)
    w = hold_at(params.detuning_max, t0, measurement_hold=True)
    phi = phase_from_waveform(w, geometry, params.tunnel_coupling)
    # exact value: pi scaled by the hold point's doubly-occupied weight
    expected = math.pi * float(sin_sq_mixing(params.detuning_max,
                                             params.tunnel_coupling))
    assert math.isclose(phi, expected, rel_tol=1e-10)
    assert abs(phi - math.pi) < 1e-4
    # with weak tunneling the hold point saturates and the nominal hold
    # lands on pi itself
    phi = phase_from_waveform(w, geometry, 0.1)
    assert abs(phi - math.pi) < 1e-6


def test_phase_linear_in_hold(geometry, params):
    t0 = controlled_phase_hold_time(geometry)
    full = phase_from_waveform(hold_at(params.detuning_max, t0, True),
                               geometry, params.tunnel_coupling)
    half = phase_from_waveform(hold_at(params.detuning_max, t0 / 2, True),
                               geometry, params.tunnel_coupling)
    assert math.isclose(half, full / 2.0, rel_tol=1e-12)


def test_phase_quadrature_matches_closed_form(geometry, params):
    # each waveform holds at -Ec/2, stays deep in (1,1), crosses eps = 0 and
    # holds at +Ec/2; half of them run the same knots backwards
    rng = np.random.default_rng(31)
    tc = params.tunnel_coupling
    lo, hi = params.detuning_min, params.detuning_max
    for _ in range(20):
        deep = np.sort(rng.uniform(lo, lo / 2.0, size=2))
        eps = [lo, lo, *deep, rng.uniform(lo / 2.0, 0.0), rng.uniform(0.0, hi),
               hi, hi]
        if rng.random() < 0.5:
            eps.reverse()
        times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 2.0, size=len(eps) - 1))])
        w = DetuningWaveform(tuple(times), tuple(eps))
        assert math.isclose(phase_from_waveform(w, geometry, tc),
                            quad_phase(w, geometry, tc), rel_tol=1e-9)
        # segment by segment, so a deep-(1,1) piece cannot hide behind the
        # far larger +Ec/2 hold
        for t0, t1, e0, e1 in w.segments():
            piece = DetuningWaveform((t0, t1), (e0, e1))
            assert math.isclose(phase_from_waveform(piece, geometry, tc),
                                quad_phase(piece, geometry, tc), rel_tol=1e-9)


def test_full_ramp_integral_is_half_duration(geometry, params):
    # symmetric ramp: the sin^2 integral is exactly half the ramp time
    coupling = pair_coupling(geometry).coupling_max
    for duration in (0.7, 1.0, 2.5):
        phi = phase_from_waveform(full_sweep(params, duration), geometry,
                                  params.tunnel_coupling)
        assert phi == coupling * duration / 2.0 / HBAR_UEV_NS


# --- charge-resolved oracle ---

def oracle_setup():
    params = MoleculeParams(tunnel_coupling=0.5)
    g2 = LayoutGeometry(topology=Topology.line(2))
    g3 = LayoutGeometry(topology=Topology.line(3))
    return params, g2, g3


def test_oracle_embedding_round_trip(rng):
    params, g2, _ = oracle_setup()
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    amps /= np.linalg.norm(amps)
    state = EncodedRegisterState(amps)
    detunings = [params.detuning_min, params.detuning_min]
    oracle = oracle_from_encoded(state, params.tunnel_coupling, detunings)
    back = oracle_to_encoded(oracle, params.tunnel_coupling, detunings)
    assert np.max(np.abs(back - amps)) < 1e-12


def test_oracle_rejects_leakage():
    amps = np.zeros(9, dtype=complex)
    amps[2] = 1.0  # pure |T, S(0,2)> while claiming idle detuning
    oracle = OracleState(amps, 2)
    with pytest.raises(ValueError, match="leakage"):
        oracle_to_encoded(oracle, 0.5, [-2500.0, -2500.0])


def test_oracle_size_limit():
    with pytest.raises(ValueError):
        OracleState(np.zeros(3 ** 5, dtype=complex), 5)


def test_oracle_zero_duration_is_identity(rng):
    params, g2, _ = oracle_setup()
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    amps /= np.linalg.norm(amps)
    state = EncodedRegisterState(amps)
    idle = hold_at(params.detuning_min, 1.0)
    oracle = oracle_from_encoded(state, params.tunnel_coupling,
                                 [params.detuning_min] * 2)
    evolved = oracle_evolve(oracle, g2, params.tunnel_coupling, [idle, idle],
                            duration=0.0)
    # zero duration leaves only a zero-length phase integral: nothing moves
    back = oracle_to_encoded(evolved, params.tunnel_coupling,
                             [params.detuning_min] * 2)
    assert np.max(np.abs(back - amps)) < 1e-12


def gate_pulse(params, geometry):
    # idealized comparison pulse: near-instant ramps so the encoded model's
    # shared-angle phase and the oracle's per-molecule bilinear phase differ
    # far below the agreement tolerance
    hold = controlled_phase_hold_time(geometry)
    return square_pulse(params, ramp=1e-4, hold=hold)


def test_oracle_matches_encoded_two_molecules(rng):
    params, g2, _ = oracle_setup()
    tc = params.tunnel_coupling
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    amps /= np.linalg.norm(amps)
    state = EncodedRegisterState(amps)

    pulse = gate_pulse(params, g2)
    phi = phase_from_waveform(pulse, g2, tc)
    encoded = ising_phase(state, 0, 1, phi, LINE2)

    idle_eps = [params.detuning_min] * 2
    oracle = oracle_from_encoded(state, tc, idle_eps)
    evolved = oracle_evolve(oracle, g2, tc, [pulse, pulse])
    back = oracle_to_encoded(evolved, tc, idle_eps)
    aligned = align_global_phase(encoded.amplitudes, back)
    assert np.max(np.abs(aligned - encoded.amplitudes)) < 1e-6


def test_oracle_three_molecule_bystander(rng):
    params, _, g3 = oracle_setup()
    tc = params.tunnel_coupling
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    amps /= np.linalg.norm(amps)
    state = EncodedRegisterState(amps)

    pulse = gate_pulse(params, g3)
    phi = phase_from_waveform(pulse, g3, tc)
    encoded = ising_phase(state, 1, 2, phi, LINE3)

    idle_eps = [params.detuning_min] * 3
    idle = hold_at(params.detuning_min, pulse.duration)
    oracle = oracle_from_encoded(state, tc, idle_eps)
    evolved = oracle_evolve(oracle, g3, tc, [idle, pulse, pulse])
    back = oracle_to_encoded(evolved, tc, idle_eps)
    aligned = align_global_phase(encoded.amplitudes, back)
    # the full-pairwise oracle agrees with nearest-neighbour intent: the
    # bystander picks up nothing above tolerance
    assert np.max(np.abs(aligned - encoded.amplitudes)) < 1e-6


def test_oracle_inline_crosstalk_is_visible(rng):
    params, _, _ = oracle_setup()
    tc = params.tunnel_coupling
    g = LayoutGeometry(layout="in_line", topology=Topology.line(3))
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    amps /= np.linalg.norm(amps)
    state = EncodedRegisterState(amps)

    pulse = gate_pulse(params, g)
    phi = phase_from_waveform(pulse, g, tc)
    encoded = ising_phase(state, 1, 2, phi, LINE3)

    idle_eps = [params.detuning_min] * 3
    idle = hold_at(params.detuning_min, pulse.duration)
    oracle = oracle_from_encoded(state, tc, idle_eps)
    evolved = oracle_evolve(oracle, g, tc, [idle, pulse, pulse],
                            displacements=[+1, +1, -1])
    back = oracle_to_encoded(evolved, tc, idle_eps)
    aligned = align_global_phase(encoded.amplitudes, back)
    # in-line: single-sided displacement shifts the idle neighbour's pair
    # energy by -E, a phase the encoded nearest-neighbour model lacks
    assert np.max(np.abs(aligned - encoded.amplitudes)) > 1e-3
