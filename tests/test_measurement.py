"""QPC readout model and the two-round Bell-state measurement."""
import math
import re

import numpy as np
import pytest
from bell_reference import (reference_bell, reference_branches, reference_leaf,
                            reference_sample, sample_outcome)
from stream_reference import substream

from dotmol import (BELL_LABELS, QPC_CURRENTS, EncodedRegisterState, LayoutGeometry,
                    Topology, bell_branches, bell_state, pair_read_probabilities,
                    product_state, qpc_read)
from dotmol.measurement import _sample, _sampler, _Thresholds

SQ = 1 / math.sqrt(2)

BELL_VECTORS = {"phi_plus": [SQ, 0, 0, SQ], "phi_minus": [SQ, 0, 0, -SQ],
                "psi_plus": [0, SQ, SQ, 0], "psi_minus": [0, SQ, -SQ, 0]}


def bell_amplitudes(amps):
    """Amplitudes of a two-molecule state in the Bell basis of BELL_VECTORS."""
    tt, ts, st, ss = amps
    return {"phi_plus": (tt + ss) * SQ, "phi_minus": (tt - ss) * SQ,
            "psi_plus": (ts + st) * SQ, "psi_minus": (ts - st) * SQ}


def test_bell_states_and_decomposition():
    for label in BELL_LABELS:
        amps = bell_state(label).amplitudes
        assert np.array_equal(amps, np.array(BELL_VECTORS[label], dtype=complex))
        d = bell_amplitudes(amps)
        assert d[label] == pytest.approx(1.0)
        assert sum(abs(c) ** 2 for c in d.values()) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        bell_state("phi")


def test_decompose_tt():
    d = bell_amplitudes(product_state("TT").amplitudes)
    assert d["phi_plus"] == pytest.approx(SQ)
    assert d["phi_minus"] == pytest.approx(SQ)
    assert d["psi_plus"] == d["psi_minus"] == 0


def test_decompose_psi_minus():
    d = bell_amplitudes(bell_state("psi_minus").amplitudes)
    assert (d["phi_plus"], d["phi_minus"], d["psi_plus"]) == (0, 0, 0)
    assert d["psi_minus"] == pytest.approx(1.0)


def test_read_single_deterministic(rng):
    outcome, post = qpc_read(product_state("T"), (0,), _sampler(rng.random))
    assert outcome == "T"
    assert np.allclose(post.amplitudes, [1, 0])
    outcome, post = qpc_read(product_state("S"), (0,), _sampler(rng.random))
    assert outcome == "S"
    assert np.allclose(post.amplitudes, [0, 1])


def test_read_single_born_statistics():
    state = EncodedRegisterState(np.array([SQ, SQ]))
    rng = np.random.default_rng(77)
    hits = sum(qpc_read(state, (0,), _sampler(rng.random))[0] == "S" for _ in range(10_000))
    assert abs(hits / 10_000 - 0.5) < 0.02


# the molecules of a read on a two-molecule register, and its refusal
REFUSED_READS = {(2,): "molecule index 2 out of range for n=2",
                 (-1,): "molecule index -1 out of range for n=2",
                 (0, 2): "molecule index 2 out of range for n=2",
                 (-1, 0): "molecule index -1 out of range for n=2",
                 (1, 1): "pair indices must differ"}


@pytest.mark.parametrize("molecules", list(REFUSED_READS))
def test_reads_refuse_molecules_outside_the_register(molecules):
    # a read names the molecule the register does not hold, or refuses one
    # molecule twice, before it takes any view or draw
    message = REFUSED_READS[molecules]
    state = bell_state("psi_plus")

    def choose(outcomes):
        raise AssertionError("a refused read must not choose")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        qpc_read(state, molecules, choose)


def test_pair_read_deterministic_levels(rng):
    level, post = qpc_read(product_state("TT"), (0, 1), _sampler(rng.random))
    assert level == "I_max" and QPC_CURRENTS[level] == 1.0
    assert np.allclose(post.amplitudes, [1, 0, 0, 0])

    level, post = qpc_read(product_state("SS"), (0, 1), _sampler(rng.random))
    assert level == "I_min" and QPC_CURRENTS[level] == 0.0

    level, post = qpc_read(bell_state("psi_plus"), (0, 1), _sampler(rng.random))
    assert level == "I_mid" and QPC_CURRENTS[level] == 0.5
    # P_mid acts as identity on the Psi sector
    assert np.allclose(post.amplitudes, bell_state("psi_plus").amplitudes)


def test_pair_probabilities_complete(rng):
    for _ in range(25):
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        amps /= np.linalg.norm(amps)
        probs = pair_read_probabilities(
            EncodedRegisterState(amps), 0, 1)
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)


def test_pair_probabilities_ignore_ising_phase(rng):
    # the measurement-sweep phase multiplies only the SS amplitude by a unit
    # factor, so no level probability can depend on it
    from dotmol import Topology, ising_phase
    adjacency = Topology.line(2).adjacency()
    for _ in range(25):
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        amps /= np.linalg.norm(amps)
        state = EncodedRegisterState(amps)
        base = pair_read_probabilities(state, 0, 1)
        shifted = pair_read_probabilities(
            ising_phase(state, 0, 1, rng.uniform(-10, 10), adjacency), 0, 1)
        for level in base:
            assert abs(base[level] - shifted[level]) < 1e-12


def run_bell(label, trials, geometry, params, seed=0):
    branches = bell_branches(bell_state(label), 0, 1, geometry, params)
    return [sample_outcome(branches, substream(seed, "bell", label, t).random)
            for t in range(trials)]


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
    plus_table = bell_branches(bell_state("psi_plus"), 0, 1, geometry, params)
    minus_table = bell_branches(bell_state("psi_minus"), 0, 1, geometry, params)
    for t in range(500):
        rng = substream(1234, "confusion", t)
        plus = sample_outcome(plus_table, rng.random)
        minus = sample_outcome(minus_table, rng.random)
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


def test_bell_final_state_in_projector_range(geometry, params):
    for outcome in run_bell("phi_plus", 100, geometry, params):
        amps = outcome.final_state.amplitudes
        if outcome.round1 == "I_max":
            assert abs(amps[0]) == pytest.approx(1.0)
        else:
            assert abs(amps[3]) == pytest.approx(1.0)


def test_bell_product_states_classify_as_sectors(geometry, params, rng):
    tt = sample_outcome(bell_branches(product_state("TT"), 0, 1, geometry, params),
                        rng.random)
    assert tt.round1 == "I_max" and tt.classification == "tt_or_phi_sector"
    ss = sample_outcome(bell_branches(product_state("SS"), 0, 1, geometry, params),
                        rng.random)
    assert ss.round1 == "I_min" and ss.classification == "ss_or_phi_sector"


def test_bell_identical_seed_identical_outcome(geometry, params):
    a = sample_outcome(bell_branches(bell_state("psi_plus"), 0, 1, geometry, params),
                       substream(99, "repeat", 0).random)
    b = sample_outcome(bell_branches(bell_state("psi_plus"), 0, 1, geometry, params),
                       substream(99, "repeat", 0).random)
    assert (a.round1, a.round2, a.classification, a.phi) == \
        (b.round1, b.round2, b.classification, b.phi)
    assert np.array_equal(a.final_state.amplitudes, b.final_state.amplitudes)


def reference_states(rng):
    """Product, Bell and random normalized two-molecule states."""
    states = [product_state("TT"), product_state("SS"), product_state("TS")]
    states += [bell_state(label) for label in BELL_LABELS]
    for _ in range(30):
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        states.append(EncodedRegisterState(amps / np.linalg.norm(amps)))
    return states


def test_bell_measure_matches_step_by_step_reference(geometry, params, rng):
    for k, state in enumerate(reference_states(rng)):
        branches = bell_branches(state, 0, 1, geometry, params)
        for trial in range(10):
            ours_rng = substream(5, "reference", k, trial)
            ref_rng = substream(5, "reference", k, trial)
            outcome = sample_outcome(branches, ours_rng.random)
            *fields, final = reference_bell(state, 0, 1, geometry, params, ref_rng.random)
            assert (outcome.round1, outcome.round2, outcome.classification,
                    outcome.phi) == tuple(fields)
            assert np.array_equal(outcome.final_state.amplitudes, final.amplitudes)
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


def float_bits(values):
    """Floats as int64 bits, so 0.0 and -0.0 count as different."""
    return np.array(values, dtype=float).view(np.int64).tolist()


def table_bits(branches):
    """Every field of a branch table, its floats and amplitudes as bits."""
    def pairs(table):
        return None if table is None else ([label for label, _ in table],
                                           float_bits([p for _, p in table]))
    return (pairs(branches.round1),
            {level: pairs(table) for level, table in branches.round2.items()},
            [(key, o.round1, o.round2, o.classification, float_bits([o.phi]),
              float_bits(o.final_state.amplitudes.view(float)))
             for key, o in branches.outcomes.items()])


@pytest.mark.parametrize("distance", [200.0, 350.0])
@pytest.mark.parametrize("layout", ["perpendicular", "in_line"])
@pytest.mark.parametrize("label", [*BELL_LABELS, "TT", "TS", "ST", "SS"])
def test_bell_table_matches_reference_branches(params, label, layout, distance):
    # the compiled BELL run on the executor, one run per live leaf, builds
    # the table the hand-written protocol built, bit for bit and in order
    g = LayoutGeometry(layout=layout, inter_molecule_distance=distance,
                       topology=Topology.line(2))
    state = bell_state(label) if label in BELL_LABELS else product_state(label)
    assert table_bits(bell_branches(state, 0, 1, g, params)) == \
        table_bits(reference_branches(state, 0, 1, g, params))


def test_bell_table_refuses_non_adjacent_pairs(params):
    g = LayoutGeometry(topology=Topology.line(3))
    state = product_state("TST")
    for i, j in ((0, 2), (2, 0)):
        with pytest.raises(ValueError, match="non-adjacent"):
            bell_branches(state, i, j, g, params)
        with pytest.raises(ValueError, match="not adjacent"):
            reference_branches(state, i, j, g, params)


def edge_draws(outcomes):
    """0.0, the largest draw below 1, and each running sum of the live p
    over their total, exactly and one ulp either side, within [0, 1)."""
    live = [p for _, p in outcomes if p > 1e-15]
    total, acc = sum(live), 0.0
    draws = {0.0, math.nextafter(1.0, 0.0)}
    for p in live:
        acc += p
        edge = acc / total
        draws.update((math.nextafter(edge, 0.0), edge, math.nextafter(edge, 2.0)))
    return sorted(u for u in draws if 0.0 <= u < 1.0)


@pytest.mark.parametrize("label", [*BELL_LABELS, "TT", "SS", "TS"])
def test_sampler_edges_match_the_per_draw_loop(geometry, params, label):
    # TS has zero-weight branches: I_max and I_min in round one
    state = bell_state(label) if label in BELL_LABELS else product_state(label)
    branches = bell_branches(state, 0, 1, geometry, params)
    seconds = {0.0, math.nextafter(1.0, 0.0)}
    for table in branches.round2.values():
        seconds.update(edge_draws(table or ()))
    pairs = [(u1, u2) for u1 in edge_draws(branches.round1) for u2 in sorted(seconds)]
    keys = list(branches.outcomes)
    leaves = branches.leaf_indices(np.array(pairs)).tolist()
    assert len(leaves) == len(pairs)
    for (u1, u2), leaf in zip(pairs, leaves):
        expected = reference_leaf(branches, u1, u2)
        assert keys[leaf] == expected, (u1, u2)


def test_sampler_edges_match_the_per_draw_loop_on_random_tables(rng):
    # three or four weights, some zero or below the live cut, totals near 1;
    # on Python 3.12 the builtin sum is compensated, so a total can exceed
    # the last running sum and the pick is clipped to the last live label
    for _ in range(300):
        weights = rng.random(int(rng.integers(3, 5)))
        weights[rng.random(len(weights)) < 0.3] = 0.0
        weights[rng.random(len(weights)) < 0.1] = 1e-16
        weights[0] += 1e-3
        outcomes = tuple(zip("abcd", (weights / weights.sum()).tolist()))
        draws = edge_draws(outcomes)
        table = _Thresholds(outcomes)
        picked = [table.labels[n] for n in table.index(np.array(draws)).tolist()]
        for u, label in zip(draws, picked):
            assert _sample(u, outcomes) == label == reference_sample(u, outcomes), (u, outcomes)
