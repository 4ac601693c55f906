"""QPC readout model and the two-round Bell-state measurement."""
import math

import numpy as np
import pytest
from bell_reference import reference_bell

from dotmol import (BELL_LABELS, EncodedRegisterState, QpcCurrents,
                    bell_branches, bell_measure, bell_state, decompose_bell,
                    pair_read_probabilities, product_state, qpc_read_pair,
                    qpc_read_single, substream)

SQ = 1 / math.sqrt(2)


def test_bell_states_and_decomposition():
    for label in BELL_LABELS:
        probs = decompose_bell(bell_state(label)).probabilities
        assert probs[label] == pytest.approx(1.0)
        assert sum(probs.values()) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        bell_state("phi")


def test_decompose_tt():
    d = decompose_bell(product_state("TT"))
    assert d.phi_plus == pytest.approx(SQ)
    assert d.phi_minus == pytest.approx(SQ)
    assert d.psi_plus == d.psi_minus == 0


def test_decompose_psi_minus():
    d = decompose_bell(bell_state("psi_minus"))
    assert (d.phi_plus, d.phi_minus, d.psi_plus) == (0, 0, 0)
    assert d.psi_minus == pytest.approx(1.0)


def test_decompose_random_state_is_unitary(rng):
    for _ in range(20):
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        amps /= np.linalg.norm(amps)
        probs = decompose_bell(EncodedRegisterState(amps, ("11", "11"))).probabilities
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-10)


def test_decompose_needs_two_molecules():
    with pytest.raises(ValueError):
        decompose_bell(product_state("TTT"))


def test_qpc_currents_ordering():
    with pytest.raises(ValueError):
        QpcCurrents(i_max=0.5, i_mid=0.5, i_min=0.0)
    c = QpcCurrents(2.0, 1.0, 0.5)
    assert c.value("I_mid") == 1.0


def test_read_single_deterministic(rng):
    outcome, post = qpc_read_single(product_state("T"), 0, rng)
    assert outcome == "T"
    assert np.allclose(post.amplitudes, [1, 0])
    outcome, post = qpc_read_single(product_state("S"), 0, rng)
    assert outcome == "S"
    assert np.allclose(post.amplitudes, [0, 1])


def test_read_single_born_statistics():
    state = EncodedRegisterState(np.array([SQ, SQ]), ("11",))
    rng = np.random.default_rng(77)
    hits = sum(qpc_read_single(state, 0, rng)[0] == "S" for _ in range(10_000))
    assert abs(hits / 10_000 - 0.5) < 0.02


def test_read_single_neighbor_conflict():
    adjacency = frozenset({(0, 1)})
    state = product_state("TS").with_flags({1: "02"})
    with pytest.raises(ValueError):
        qpc_read_single(state, 0, rng=np.random.default_rng(0), adjacency=adjacency)
    busy = product_state("TS").with_flags({0: "02"})
    with pytest.raises(ValueError):
        qpc_read_single(busy, 0, rng=np.random.default_rng(0))


def swept(state):
    return state.with_flags({0: "02", 1: "02"})


def test_pair_read_deterministic_levels(rng):
    reading = qpc_read_pair(swept(product_state("TT")), 0, 1, rng)
    assert reading.level == "I_max" and reading.current == 1.0
    assert np.allclose(reading.post_state.amplitudes, [1, 0, 0, 0])

    reading = qpc_read_pair(swept(product_state("SS")), 0, 1, rng)
    assert reading.level == "I_min" and reading.current == 0.0

    reading = qpc_read_pair(swept(bell_state("psi_plus")), 0, 1, rng)
    assert reading.level == "I_mid" and reading.current == 0.5
    # P_mid acts as identity on the Psi sector
    assert np.allclose(reading.post_state.amplitudes,
                       bell_state("psi_plus").amplitudes)


def test_pair_read_requires_sweep(rng):
    with pytest.raises(ValueError):
        qpc_read_pair(product_state("TT"), 0, 1, rng)


def test_pair_probabilities_complete(rng):
    for _ in range(25):
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        amps /= np.linalg.norm(amps)
        probs = pair_read_probabilities(
            EncodedRegisterState(amps, ("11", "11")), 0, 1)
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)


def test_pair_probabilities_ignore_ising_phase(rng):
    # the measurement-sweep phase multiplies only the SS amplitude by a unit
    # factor, so no level probability can depend on it
    from dotmol import Topology, ising_phase
    adjacency = Topology.line(2).adjacency()
    for _ in range(25):
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        amps /= np.linalg.norm(amps)
        state = EncodedRegisterState(amps, ("11", "11"))
        base = pair_read_probabilities(state, 0, 1)
        shifted = pair_read_probabilities(
            ising_phase(state, 0, 1, rng.uniform(-10, 10), adjacency), 0, 1)
        for level in base:
            assert abs(base[level] - shifted[level]) < 1e-12


def run_bell(label, trials, geometry, params, seed=0):
    outcomes = []
    for t in range(trials):
        rng = substream(seed, "bell", label, t)
        outcomes.append(bell_measure(bell_state(label), 0, 1, geometry,
                                     params, rng))
    return outcomes


def test_bell_psi_minus_is_deterministic(geometry, params):
    for outcome in run_bell("psi_minus", 200, geometry, params):
        assert outcome.round1 == "I_mid"
        assert outcome.round2 == "I_mid"
        assert outcome.classification == "psi_minus"


def test_bell_psi_plus_always_heralds_then_splits(geometry, params):
    outcomes = run_bell("psi_plus", 2000, geometry, params)
    assert all(o.round1 == "I_mid" for o in outcomes)
    assert all(o.classification == "psi_plus" for o in outcomes)
    seen = {o.round2 for o in outcomes}
    assert seen == {"I_max", "I_min"}
    fraction = sum(o.round2 == "I_max" for o in outcomes) / len(outcomes)
    assert abs(fraction - 0.5) < 0.05


def test_bell_phi_states_never_reach_round_two(geometry, params):
    for label in ("phi_plus", "phi_minus"):
        outcomes = run_bell(label, 2000, geometry, params)
        assert all(o.round1 in ("I_max", "I_min") for o in outcomes)
        assert all(o.round2 is None for o in outcomes)
        assert all(o.classification in ("tt_or_phi_sector", "ss_or_phi_sector")
                   for o in outcomes)
        fraction = sum(o.round1 == "I_max" for o in outcomes) / len(outcomes)
        assert abs(fraction - 0.5) < 0.05


def test_bell_zero_psi_confusion(geometry, params):
    # no seed may ever cross-classify the two Psi states
    for t in range(500):
        rng = substream(1234, "confusion", t)
        plus = bell_measure(bell_state("psi_plus"), 0, 1, geometry, params, rng)
        minus = bell_measure(bell_state("psi_minus"), 0, 1, geometry, params, rng)
        assert plus.classification == "psi_plus"
        assert minus.classification == "psi_minus"


def test_bell_outcome_round2_iff_mid(geometry, params):
    outcomes = run_bell("phi_plus", 50, geometry, params) + \
        run_bell("psi_minus", 50, geometry, params)
    for o in outcomes:
        assert (o.round2 is not None) == (o.round1 == "I_mid")
        assert o.phi > 0.0  # every protocol run sweeps at least twice
        norm = np.sum(np.abs(o.final_state.amplitudes) ** 2)
        assert norm == pytest.approx(1.0, abs=1e-10)
        assert o.final_state.charge_flags == ("11", "11")


def test_bell_final_state_in_projector_range(geometry, params):
    for outcome in run_bell("phi_plus", 100, geometry, params):
        amps = outcome.final_state.amplitudes
        if outcome.round1 == "I_max":
            assert abs(amps[0]) == pytest.approx(1.0)
        else:
            assert abs(amps[3]) == pytest.approx(1.0)


def test_bell_product_states_classify_as_sectors(geometry, params, rng):
    tt = bell_measure(product_state("TT"), 0, 1, geometry, params, rng)
    assert tt.round1 == "I_max" and tt.classification == "tt_or_phi_sector"
    ss = bell_measure(product_state("SS"), 0, 1, geometry, params, rng)
    assert ss.round1 == "I_min" and ss.classification == "ss_or_phi_sector"


def test_bell_identical_seed_identical_outcome(geometry, params):
    a = bell_measure(bell_state("psi_plus"), 0, 1, geometry, params,
                     substream(99, "repeat", 0))
    b = bell_measure(bell_state("psi_plus"), 0, 1, geometry, params,
                     substream(99, "repeat", 0))
    assert (a.round1, a.round2, a.classification, a.phi) == \
        (b.round1, b.round2, b.classification, b.phi)
    assert np.array_equal(a.final_state.amplitudes, b.final_state.amplitudes)


def reference_states(rng):
    """Product, Bell and random normalized two-molecule states."""
    states = [product_state("TT"), product_state("SS"), product_state("TS")]
    states += [bell_state(label) for label in BELL_LABELS]
    for _ in range(30):
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        states.append(EncodedRegisterState(amps / np.linalg.norm(amps), ("11", "11")))
    return states


def test_bell_measure_matches_step_by_step_reference(geometry, params, rng):
    for k, state in enumerate(reference_states(rng)):
        for trial in range(10):
            ours_rng = substream(5, "reference", k, trial)
            ref_rng = substream(5, "reference", k, trial)
            outcome = bell_measure(state, 0, 1, geometry, params, ours_rng)
            *fields, final = reference_bell(state, 0, 1, geometry, params, ref_rng)
            assert (outcome.round1, outcome.round2, outcome.classification,
                    outcome.phi) == tuple(fields)
            assert np.array_equal(outcome.final_state.amplitudes, final.amplitudes)
            assert outcome.final_state.charge_flags == final.charge_flags
            # same number of draws: the streams continue in step
            assert ours_rng.random() == ref_rng.random()


def test_bell_branches_hold_every_live_outcome(geometry, params, rng):
    for state in reference_states(rng):
        branches = bell_branches(state, 0, 1, geometry, params)
        live1 = [level for level, p in branches.round1 if p > 1e-15]
        assert sum(p for _, p in branches.round1) == pytest.approx(1.0, abs=1e-12)
        assert sorted(branches.round2) == sorted(live1)
        leaves = set()
        for level1 in live1:
            second = branches.round2[level1]
            if level1 != "I_mid":
                assert second is None
                leaves.add((level1, None))
                continue
            assert sum(p for _, p in second) == pytest.approx(1.0, abs=1e-12)
            leaves.update((level1, level2) for level2, p in second if p > 1e-15)
        assert set(branches.outcomes) == leaves
        for (level1, level2), outcome in branches.outcomes.items():
            assert (outcome.round1, outcome.round2) == (level1, level2)
            assert outcome.reading1.level == level1
            assert outcome.final_state.charge_flags == ("11", "11")
