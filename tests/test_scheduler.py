"""Schedule compilation, exclusion-rule validation, and time budgets."""
import json
import math
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
import schedule_reference as reference
from charge_oracle import square_pulse

from dotmol import (ECHO_FACTOR, READ_LIMIT_MESSAGE, Action, CompileError,
                    EncodedRegisterState, Gate, LayoutGeometry, MoleculeParams,
                    Rotation, ScheduleProgram, ScheduleStep, Topology, apply_rotation,
                    compile_circuit, init_schedule, ising_phase,
                    phase_from_waveform, product_state, simulate_program,
                    time_budget, validate_program)
from dotmol import scheduler
from dotmol.cli import _indented_json, _render, parse_circuit
from dotmol.register import cnot, molecule_view
from dotmol.scheduler import _OwnedRegister


def members(step):
    return sorted(m for a in step.actions for m in a.molecules)


def test_init_line_two_steps(params):
    program = init_schedule(Topology.line(5), params)
    assert len(program.steps) == 2
    assert members(program.steps[0]) == [0, 2, 4]
    assert members(program.steps[1]) == [1, 3]
    for n in (2, 3, 7, 12):
        assert len(init_schedule(Topology.line(n), params).steps) == 2


def test_init_single_molecule_one_step(params):
    program = init_schedule(Topology.line(1), params)
    assert len(program.steps) == 1


def test_init_grid_diagonal_four_steps(params):
    assert len(init_schedule(Topology.grid(3, 3), params).steps) == 4
    assert len(init_schedule(Topology.grid(2, 2), params).steps) == 4
    assert len(init_schedule(Topology.grid(4, 5), params).steps) == 4


def test_init_grid_edge_only_two_steps(params):
    assert len(init_schedule(Topology.grid(3, 3, diagonal=False), params).steps) == 2


def test_init_steps_validate(params):
    for topology in (Topology.line(6), Topology.grid(3, 3),
                     Topology.grid(2, 4, diagonal=False)):
        program = init_schedule(topology, params)
        assert validate_program(program, topology.adjacency()) == []


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate("swap", (0, 1))
    with pytest.raises(ValueError):
        Gate("h", (0, 1))
    with pytest.raises(ValueError):
        Gate("cz", (1, 1))


def test_empty_circuit_compiles_to_empty_program(geometry, params):
    program = compile_circuit([], geometry, params)
    assert program.steps == ()
    assert program.total_duration == 0.0


def test_compile_rejects_bad_circuits(params):
    g = LayoutGeometry(topology=Topology.line(4))
    with pytest.raises(CompileError, match="routing"):
        compile_circuit([Gate("cnot", (0, 2))], g, params)
    with pytest.raises(CompileError, match="out of range"):
        compile_circuit([Gate("h", (5,))], g, params)


def test_compile_reports_the_first_bad_gate_in_data_order(params):
    g = LayoutGeometry(topology=Topology.line(4))
    good, far, missing = Gate("cz", (0, 1)), Gate("cz", (0, 2)), Gate("h", (7,))
    with pytest.raises(CompileError, match=r"non-adjacent molecules \(0, 2\)"):
        compile_circuit([good, good, far, good, missing, far], g, params)
    with pytest.raises(CompileError, match=r"h on \(7,\) is out of range"):
        compile_circuit([good, missing, far, missing, good], g, params)


def test_compile_takes_any_iterable_of_gates(params):
    g = LayoutGeometry(topology=Topology.line(3))
    gates = [Gate("cz", (0, 1)), Gate("h", (2,)), Gate("cz", (0, 1))]
    program = compile_circuit(gates, g, params)
    assert len(program.steps) > 0
    assert compile_circuit(iter(gates), g, params) == program
    assert compile_circuit((gate for gate in gates), g, params) == program
    with pytest.raises(CompileError, match="out of range"):
        compile_circuit(iter([Gate("h", (3,))]), g, params)


def test_step_duration_is_kept_out_of_equality_and_repr(geometry, params):
    program = compile_circuit([Gate("cnot", (0, 1))], geometry, params)
    for step in program.steps:
        fresh = ScheduleStep(step.actions)
        assert step.duration == max(a.duration for a in step.actions)
        assert step == fresh and hash(step) == hash(fresh)
        assert repr(step) == repr(fresh)
    assert ScheduleStep(()).duration == 0.0


def test_compile_cnot_structure(geometry, params):
    program = compile_circuit([Gate("cnot", (0, 1))], geometry, params)
    kinds = [a.kind for step in program.steps for a in step.actions]
    assert kinds == ["rotate", "sweep_pair", "rotate"]
    sweep = program.steps[1].actions[0]
    assert sweep.molecules == (0, 1)
    assert sweep.phase == math.pi
    assert sweep.ramp > 0 and sweep.hold > 0
    assert sweep.duration == pytest.approx(2 * sweep.ramp + sweep.hold)
    # total stays well inside the bare coherence window
    assert program.total_duration < params.coherence_time


def test_compiled_hold_lands_on_pi(geometry, params):
    program = compile_circuit([Gate("cz", (0, 1))], geometry, params)
    sweep = next(a for step in program.steps for a in step.actions
                 if a.kind == "sweep_pair")
    w = square_pulse(params, sweep.ramp, sweep.hold)
    phi = phase_from_waveform(w, geometry, params.tunnel_coupling)
    assert abs(phi % (2 * math.pi) - math.pi) < 1e-6


def test_compiled_ramp_validates(geometry, params):
    from dotmol import validate_waveform
    program = compile_circuit([Gate("cz", (0, 1))], geometry, params)
    sweep = next(a for step in program.steps for a in step.actions
                 if a.kind == "sweep_pair")
    w = square_pulse(params, sweep.ramp, sweep.hold)
    assert validate_waveform(w, params) == []


def test_packing_blocks_adjacent_pairs(params):
    g = LayoutGeometry(topology=Topology.line(4))
    program = compile_circuit([Gate("cz", (0, 1)), Gate("cz", (2, 3))], g, params)
    # molecules 1 and 2 are adjacent: both pairs charge-displaced in one
    # step would couple them, so the compiler must split
    assert len(program.steps) == 2


def test_packing_merges_safe_pairs(params):
    g = LayoutGeometry(topology=Topology.line(5))
    program = compile_circuit([Gate("cz", (0, 1)), Gate("cz", (3, 4))], g, params)
    assert len(program.steps) == 1
    assert len(program.steps[0].actions) == 2


def test_packing_rotations_share_steps(params):
    g = LayoutGeometry(topology=Topology.line(3))
    program = compile_circuit([Gate("h", (0,)), Gate("h", (1,)), Gate("h", (2,))],
                              g, params)
    assert len(program.steps) == 1


def test_reads_get_their_own_step(params):
    g = LayoutGeometry(topology=Topology.line(4))
    program = compile_circuit([Gate("measure", (0,)), Gate("h", (3,))], g, params)
    for step in program.steps:
        if any(a.kind == "read_single" for a in step.actions):
            assert len(step.actions) == 1


def random_circuit(rng, topology, length=(3, 15)):
    adjacency = sorted(topology.adjacency())
    gates = []
    for _ in range(rng.integers(*length)):
        roll = rng.random()
        if roll < 0.4:
            kind = rng.choice(["h", "z", "xz"])
            gates.append(Gate(kind, (int(rng.integers(topology.size)),),
                              angle=float(rng.uniform(-3, 3)),
                              axis_angle=float(rng.uniform(-3, 3))))
        elif roll < 0.8 and adjacency:
            pair = adjacency[rng.integers(len(adjacency))]
            gates.append(Gate(rng.choice(["cz", "cnot"]), tuple(pair)))
        elif roll < 0.9:
            gates.append(Gate("measure", (int(rng.integers(topology.size)),)))
        elif adjacency:
            pair = adjacency[rng.integers(len(adjacency))]
            gates.append(Gate("bell", tuple(pair)))
    return gates


def test_random_circuits_validate_clean(params):
    rng = np.random.default_rng(2024)
    for seed in range(100):
        if seed % 2 == 0:
            topology = Topology.line(int(rng.integers(2, 9)))
        else:
            topology = Topology.grid(2, int(rng.integers(2, 5)))
        g = LayoutGeometry(topology=topology)
        program = compile_circuit(random_circuit(rng, topology), g, params)
        assert validate_program(program, topology.adjacency()) == []


def reference_topologies(rng, count, largest=5):
    """Lines, diagonal grids and edge-only grids of random sizes, in turn;
    grids have at most `largest` rows and columns."""
    for k in range(count):
        rows, cols = (int(x) for x in rng.integers(1, largest + 1, size=2))
        yield (Topology.line(int(rng.integers(1, 10))),
               Topology.grid(rows, cols),
               Topology.grid(rows, cols, diagonal=False))[k % 3]


def test_init_colors_match_reference(params):
    fixed = (Topology.line(1), Topology.line(9), Topology.grid(5, 7),
             Topology.grid(6, 4, diagonal=False), Topology.grid(1, 5))
    rng = np.random.default_rng(808)
    for topology in (*fixed, *reference_topologies(rng, 150)):
        assert init_schedule(topology, params) == reference.init_schedule(topology, params)


def test_topology_adjacency_is_built_once(monkeypatch, params):
    calls = []
    adjacency = Topology.adjacency

    def counted(self):
        calls.append(self)
        return adjacency(self)

    monkeypatch.setattr(Topology, "adjacency", counted)
    g = LayoutGeometry(topology=Topology.grid(64, 64))
    assert len(init_schedule(g.topology, params).steps) == 4
    assert len(calls) == 1
    compile_circuit([Gate("cz", (0, 65)), Gate("bell", (4094, 4095))], g, params)
    assert len(calls) == 2


def test_packing_matches_pairwise_reference(params):
    rng = np.random.default_rng(515)
    for topology in reference_topologies(rng, 150):
        g = LayoutGeometry(topology=topology)
        gates = random_circuit(rng, topology, length=(10, 80))
        assert (compile_circuit(gates, g, params)
                == reference.compile_circuit(gates, g, params))


def assert_written_as_reference(program):
    expected = json.dumps({"schedule": reference.reference_to_json(program)},
                          sort_keys=True, indent=2) + "\n"
    assert _indented_json({"schedule": program}) == expected.encode()


def test_schedule_writer_matches_reference_encoder(params):
    # the same 150 circuits as test_packing_matches_pairwise_reference
    rng = np.random.default_rng(515)
    for topology in reference_topologies(rng, 150):
        g = LayoutGeometry(topology=topology)
        gates = random_circuit(rng, topology, length=(10, 80))
        assert_written_as_reference(compile_circuit(gates, g, params))


def test_schedule_writer_matches_reference_on_hand_built_programs(params):
    sweep = dict(duration=2.5, ramp=0.75, hold=1.0, phase=math.pi)
    programs = [
        ScheduleProgram((), 0),
        ScheduleProgram((ScheduleStep(()),), 2),
        init_schedule(Topology.grid(2, 3), params),
        ScheduleProgram((
            ScheduleStep((Action("sweep_pair", (0, 1), **dict(sweep, phase=None)),
                          Action("sweep_pair", (2, 3), **dict(sweep, hold=0)),
                          Action("sweep_pair", (4, 5), **dict(sweep, hold=-0.0,
                                                              phase=-0.0)))),
            ScheduleStep((Action("rotate", (0,), duration=0.0,
                                 rotation=Rotation("uxz", angle=-0.0, axis_angle=-0.0)),
                          Action("rotate", (1,), duration=2,
                                 rotation=Rotation("uz", angle=3, duration=2)),
                          Action("rotate", (2,), duration=1.0,
                                 rotation=Rotation.hadamard(), ramp=0.5))),
            ScheduleStep((Action("read_single", (0,), duration=1002, ramp=1,
                                 read_duration=1000),)),
            ScheduleStep((Action("read_pair", (4, 5), duration=1001.5, ramp=0.75,
                                 read_duration=1000.0),
                          Action("init", (), duration=0))),
            ScheduleStep(()),
        ), 6),
    ]
    for program in programs:
        assert_written_as_reference(program)
    # nested one level deeper, next to other values
    expected = json.dumps([reference.reference_to_json(p) for p in programs] + [1.5],
                          sort_keys=True, indent=2) + "\n"
    assert _indented_json(programs + [1.5]) == expected.encode()


def test_repeated_gate_object_compiles_like_distinct_copies(line3, params):
    gates = [Gate("cnot", (0, 1)), Gate("z", (2,), angle=-0.0), Gate("bell", (1, 2)),
             Gate("measure", (0,)), Gate("h", (2,)), Gate("cz", (1, 2)),
             Gate("xz", (1,), axis_angle=0.3, angle=-0.0), Gate("z", (2,), angle=0.0)]
    shared = gates * 3
    distinct = [replace(gate) for gate in shared]
    program = compile_circuit(shared, line3, params)
    assert program == compile_circuit(distinct, line3, params)
    assert program == reference.compile_circuit(distinct, line3, params)
    assert_written_as_reference(program)


def test_angle_free_actions_are_one_object_per_kind_and_molecules(params):
    # the render's memo of action texts is keyed by identity, so it writes
    # each angle-free action once only if lowering shares it
    text = "\n".join(["H 0", "CNOT 0 1", "CZ 1 2", "MEASURE 3", "BELL 2 3", "Z 1 0.5",
                      "H 0", "CNOT 1 0", "CZ 2 1", "MEASURE 3", "BELL 3 2",
                      "CNOT 0 1", "CZ 1 2", "BELL 2 3", "XZ 2 0.3 0.5", "CZ 2 1"] * 2)
    # parsed repeats are one Gate object; the copies are distinct objects
    gates = parse_circuit(text)
    gates += [replace(gate) for gate in gates]
    actions = scheduler._lower(gates, LayoutGeometry(topology=Topology.line(4)), params)
    shared: dict[tuple, set[int]] = {}
    for a in actions:
        if a.rotation is None or a.rotation.kind == "hadamard":
            shared.setdefault((a.kind, a.molecules), set()).add(id(a))
    assert {key: len(ids) for key, ids in shared.items()} == dict.fromkeys([
        ("rotate", (0,)), ("rotate", (1,)), ("rotate", (2,)), ("rotate", (3,)),
        ("sweep_pair", (0, 1)), ("sweep_pair", (1, 0)), ("sweep_pair", (1, 2)),
        ("sweep_pair", (2, 1)), ("read_single", (3,)), ("read_pair", (2, 3)),
        ("read_pair", (3, 2))], 1)


def simulate_scenario_program(gates, g, params):
    """Initialization, then the compiled circuit, as the simulate scenario runs."""
    compiled = compile_circuit(gates, g, params)
    return ScheduleProgram(init_schedule(g.topology, params).steps + compiled.steps,
                           compiled.molecule_count)


def assert_simulates_as_reference(program, g, params, seed):
    state, events = simulate_program(program, g, params, np.random.default_rng(seed).random)
    expected, expected_events = reference.reference_simulate_program(
        program, g, params, np.random.default_rng(seed).random)
    # int64 views compare bits: 0.0 against -0.0 counts as a difference
    assert np.array_equal(state.amplitudes.view(np.int64),
                          expected.amplitudes.view(np.int64))
    assert events == expected_events


def test_simulation_matches_step_by_step_reference(params):
    rng = np.random.default_rng(517)
    for k, topology in enumerate(reference_topologies(rng, 150, largest=4)):
        g = LayoutGeometry(topology=topology)
        gates = random_circuit(rng, topology, length=(10, 80))
        assert_simulates_as_reference(simulate_scenario_program(gates, g, params),
                                      g, params, k)


def test_simulation_matches_reference_after_many_swaps(params):
    # every molecule rotated in descending order, twice, so each rotation
    # moves a molecule forward; CZs between molecules that have both moved;
    # a read of each kind puts the order back in mid-circuit; then more
    # rotations move molecules again before the final state
    g = LayoutGeometry(topology=Topology.grid(3, 4))
    gates = []
    for angle in (0.3, -1.1):
        for m in reversed(range(12)):
            gates += [Gate("h", (m,)), Gate("xz", (m,), angle=angle, axis_angle=0.2 * m)]
    gates += [Gate("cz", pair) for pair in ((10, 11), (6, 11), (0, 5), (2, 7), (4, 9))]
    gates += [Gate("measure", (7,)), Gate("bell", (2, 3))]
    gates += [Gate("z", (m,), angle=0.1 * m - 0.5) for m in (11, 4, 0, 9)]
    gates += [Gate("cnot", (9, 5)), Gate("h", (1,))]
    program = simulate_scenario_program(gates, g, params)
    for seed in range(4):
        assert_simulates_as_reference(program, g, params, seed)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_axis_exchange_matches_swapaxes(n):
    # the in-place exchange of memory axes 0 and q is a pure permutation:
    # every part, signed zeros included, lands bit for bit where swapaxes
    # puts it, whatever the spare held before
    rng = np.random.default_rng(700 + n)
    for q in range(1, n):
        parts = rng.normal(size=2 ** (n + 1))
        parts[rng.random(parts.size) < 0.25] = -0.0
        parts[rng.random(parts.size) < 0.1] = 0.0
        amps = parts.view(complex) / np.linalg.norm(parts)
        expected = np.swapaxes(amps.reshape((2,) * n), 0, q).reshape(-1)
        register = _OwnedRegister(EncodedRegisterState(amps.copy()))
        buffer = register.amps
        register.spare[:] = rng.normal(size=amps.size) + 1j * np.nan
        register._exchange(q)
        assert register.amps is buffer
        assert np.array_equal(buffer.view(np.int64), expected.view(np.int64))


def scrambled_program(rng, topology, params):
    """Init, circuit and stray actions dealt at random into a few steps."""
    g = LayoutGeometry(topology=topology)
    program = compile_circuit(random_circuit(rng, topology, length=(10, 60)), g, params)
    actions = [a for step in init_schedule(topology, params).steps + program.steps
               for a in step.actions]
    for m in (topology.size, topology.size + 2, -1):
        kind = str(rng.choice(["init", "read_single", "rotate"]))
        actions.append(Action(kind, (m,), duration=1.0))
    steps = [[] for _ in range(max(1, len(actions) // 5))]
    for action in actions:
        steps[rng.integers(len(steps))].append(action)
    return ScheduleProgram(tuple(ScheduleStep(tuple(s)) for s in steps),
                           topology.size)


def test_validation_matches_all_pairs_reference(params):
    rng = np.random.default_rng(516)
    rules = set()
    for topology in reference_topologies(rng, 150):
        program = scrambled_program(rng, topology, params)
        adjacency = topology.adjacency()
        findings = validate_program(program, adjacency)
        assert findings == reference.validate_program(program, adjacency)
        rules.update(v.rule for v in findings)
    assert rules == {"overlapping-actions", "molecule-out-of-range", "adjacent-read",
                     "adjacent-init", "unintended-02-adjacency"}


def splice_violations(program, topology):
    """program with one rule-breaking step inserted at each of a few known
    step numbers; returns it and the (step, rule) of every finding. Each
    inserted step also rotates every molecule it does not otherwise use,
    so it is long and breaks one rule once. Rotations displace no charge,
    so the overlaps and missing molecules carried by rotations meet no
    neighbour set."""
    n, cols = topology.size, topology.cols
    pulse = next(a for step in program.steps for a in step.actions
                 if a.kind == "sweep_pair")

    def rotate(m):
        return Action("rotate", (m,), duration=0.0, rotation=Rotation.hadamard())

    def one(kind, m):
        return Action(kind, (m,), duration=1.0)

    breaks = [
        ("overlapping-actions", [rotate(5), rotate(5)]),
        ("overlapping-actions", [one("init", 7), rotate(7)]),
        ("molecule-out-of-range", [rotate(-1)]),
        ("molecule-out-of-range", [rotate(n)]),
        # the later action of each pair holds the smaller molecule
        ("adjacent-read", [one("read_single", 1), one("read_single", 0)]),
        ("adjacent-init", [one("init", cols), one("init", 0)]),
        # the adjacent pair of sweeps follows one that is clear of both
        ("unintended-02-adjacency", [replace(pulse, molecules=(4 * cols, 4 * cols + 1)),
                                     replace(pulse, molecules=(0, 1)),
                                     replace(pulse, molecules=(2, 3))]),
    ]
    steps = list(program.steps)
    expected = []
    for k, (rule, actions) in enumerate(breaks):
        used = {m for a in actions for m in a.molecules}
        filler = [rotate(m) for m in range(n) if m not in used]
        half = len(filler) // 2
        at = 30 * (k + 1)
        steps.insert(at, ScheduleStep((*filler[:half], *actions, *filler[half:])))
        expected.append((at, rule))
    return ScheduleProgram(tuple(steps), n), expected


def test_validation_matches_reference_on_long_programs(params):
    # initialization and a long random circuit, packed as simulate packs
    # them: hundreds of steps, many of them long, all clean
    topology = Topology.grid(6, 6)
    adjacency = topology.adjacency()
    rng = np.random.default_rng(517)
    compiled = compile_circuit(random_circuit(rng, topology, length=(600, 601)),
                               LayoutGeometry(topology=topology), params)
    program = ScheduleProgram(init_schedule(topology, params).steps + compiled.steps,
                              topology.size)
    assert len(program.steps) > 200 and validate_program(program, adjacency) == []
    spliced, expected = splice_violations(program, topology)
    findings = validate_program(spliced, adjacency)
    assert findings == reference.validate_program(spliced, adjacency)
    assert [(v.step, v.rule) for v in findings] == expected

    # adjacency sets that no topology builds: a strict subset, some pairs
    # written (j, i), and self-pairs (i, i)
    pairs = sorted(adjacency)
    subset = frozenset(p for p in pairs if rng.random() < 0.7)
    flipped = frozenset((j, i) if k % 3 == 0 else (i, j) for k, (i, j) in enumerate(pairs))
    self_pairs = adjacency | {(m, m) for m in range(0, topology.size, 5)}
    for odd in (subset, flipped, self_pairs):
        for candidate in (program, spliced):
            assert (validate_program(candidate, odd)
                    == reference.validate_program(candidate, odd))


def one_step(*actions):
    return ScheduleProgram((ScheduleStep(tuple(actions)),), 6)


def test_validator_flags_adjacent_reads():
    program = one_step(
        Action("read_single", (3,), duration=1.0),
        Action("read_single", (4,), duration=1.0))
    violations = validate_program(program, Topology.line(6).adjacency())
    assert [v.rule for v in violations] == ["adjacent-read"]
    assert violations[0].molecules == (3, 4)


def test_validator_flags_adjacent_inits():
    program = one_step(
        Action("init", (2,), duration=1.0),
        Action("init", (3,), duration=1.0))
    violations = validate_program(program, Topology.line(6).adjacency())
    assert [v.rule for v in violations] == ["adjacent-init"]


def test_validator_flags_unintended_02_adjacency():
    program = one_step(
        Action("sweep_pair", (0, 1), duration=1.0, phase=math.pi),
        Action("sweep_pair", (2, 3), duration=1.0, phase=math.pi))
    violations = validate_program(program, Topology.line(6).adjacency())
    assert [v.rule for v in violations] == ["unintended-02-adjacency"]


def test_validator_flags_overlap_and_range():
    program = one_step(
        Action("rotate", (1,), duration=0.0, rotation=Rotation.hadamard()),
        Action("rotate", (1,), duration=0.0, rotation=Rotation.hadamard()))
    rules = {v.rule for v in validate_program(program, Topology.line(6).adjacency())}
    assert "overlapping-actions" in rules
    program = one_step(Action("rotate", (9,), duration=0.0,
                              rotation=Rotation.hadamard()))
    rules = {v.rule for v in validate_program(program, Topology.line(6).adjacency())}
    assert "molecule-out-of-range" in rules


def test_validator_accepts_nonadjacent_duplickinds():
    program = one_step(
        Action("init", (0,), duration=1.0),
        Action("init", (2,), duration=1.0))
    assert validate_program(program, Topology.line(6).adjacency()) == []


def test_budget_empty_program(params):
    report = time_budget(ScheduleProgram((), 3), params)
    assert report.ok
    assert report.elapsed == {}
    assert report.limit == params.coherence_time


def test_budget_single_cz_passes(geometry, params):
    program = compile_circuit([Gate("cz", (0, 1))], geometry, params)
    report = time_budget(program, params)
    assert report.ok
    assert all(t < params.coherence_time for t in report.elapsed.values())


def test_budget_flags_long_circuits(geometry, params):
    gates = [Gate("cz", (0, 1))] * 6  # ~11 ns total
    program = compile_circuit(gates, geometry, params)
    report = time_budget(program, params)
    assert not report.ok
    assert {v.rule for v in report.violations} == {"coherence-budget"}
    echoed = time_budget(program, params, echo=True)
    assert echoed.ok
    assert echoed.limit == params.coherence_time * ECHO_FACTOR


def test_budget_flags_second_read_even_with_echo(geometry, params):
    program = compile_circuit([Gate("bell", (0, 1))], geometry, params)
    report = time_budget(program, params, echo=True)
    assert not report.ok
    read_rules = [v for v in report.violations if v.rule == "qpc-read-limit"]
    assert read_rules and all(v.message == READ_LIMIT_MESSAGE for v in read_rules)
    assert report.read_counts[0] == 2


def test_budget_one_read_fits_the_echo_window(geometry, params):
    # a single (shortened) read inside the echoed window raises no flags
    read, = compile_circuit([Gate("measure", (0,))], geometry, params).steps[0].actions
    short = replace(read, duration=2.0 * read.ramp + 500.0, read_duration=500.0)
    program = ScheduleProgram((ScheduleStep((short,)),), 2)
    report = time_budget(program, params, echo=True)
    assert report.ok
    assert report.read_counts[0] == 1


def assert_budget_as_reference(program, params, echo):
    report = time_budget(program, params, echo=echo)
    expected = reference.reference_time_budget(program, params, echo=echo)
    assert list(report.elapsed) == list(expected.elapsed)
    assert ([float.hex(t) for t in report.elapsed.values()]
            == [float.hex(t) for t in expected.elapsed.values()])
    assert list(report.read_counts.items()) == list(expected.read_counts.items())
    assert report.violations == expected.violations
    assert report.limit == expected.limit
    return report


def test_budget_matches_numpy_reference(params):
    rng = np.random.default_rng(519)
    programs = [ScheduleProgram((), 3),
                # steps of zero duration, before, between and after timed
                # ones; integer durations still give float times
                ScheduleProgram((ScheduleStep(()),
                                 ScheduleStep((Action("init", (0,), duration=0.0),
                                               Action("rotate", (2,), duration=0))),
                                 ScheduleStep((Action("init", (1,), duration=2.5),)),
                                 ScheduleStep((Action("rotate", (1,), duration=0.0),)),
                                 ScheduleStep((Action("read_single", (1,), duration=0.0),)),
                                 ScheduleStep((Action("read_single", (0,), duration=3),))),
                                3)]
    for topology in reference_topologies(rng, 40):
        g = LayoutGeometry(topology=topology)
        compiled = compile_circuit(random_circuit(rng, topology, length=(10, 120)),
                                   g, params)
        programs += [compiled, ScheduleProgram(
            init_schedule(topology, params).steps + compiled.steps, topology.size)]
    kinds = {a.kind for p in programs for step in p.steps for a in step.actions}
    assert kinds == {"init", "rotate", "sweep_pair", "read_single", "read_pair"}
    rules = set()
    for program in programs:
        for echo in (False, True):
            rules.update(v.rule for v in
                         assert_budget_as_reference(program, params, echo).violations)
    assert rules == {"coherence-budget", "qpc-read-limit"}


def benchmark_scale_circuit():
    """The compile benchmark's 12x12 diagonal grid with a tenth of its gates:
    (gates, geometry). A fifth of the gates are reads or BELLs."""
    topology = Topology.grid(12, 12)
    gates = random_circuit(np.random.default_rng(520), topology, length=(2000, 2001))
    return gates, LayoutGeometry(topology=topology)


def test_schedule_at_benchmark_scale_matches_references(params):
    # the packer's scans pass read steps, for actions that displace charge
    # and for rotations
    gates, g = benchmark_scale_circuit()
    topology = g.topology
    program = compile_circuit(gates, g, params)
    assert program == reference.compile_circuit(gates, g, params)
    assert validate_program(program, topology.adjacency()) == []
    assert reference.validate_program(program, topology.adjacency()) == []
    for echo in (False, True):
        assert_budget_as_reference(program, params, echo)

    # an action whose molecules' previous step comes before a read step,
    # and which lands after it, scanned past that read step
    last: dict[int, int] = {}
    last_read, scanned = -1, Counter()
    for s, step in enumerate(program.steps):
        if step.actions[0].reads:
            last_read = s
        for action in step.actions:
            if max(last.get(m, -1) for m in action.molecules) < last_read < s:
                scanned[action.kind] += 1
            last.update(dict.fromkeys(action.molecules, s))
    assert scanned["rotate"] > 100 and scanned["sweep_pair"] > 100


def test_render_at_benchmark_scale_holds_one_copy_of_its_bytes(params):
    # the writer emits each byte once into one buffer: its traced peak stays
    # near the output's length, where a str of the whole document beside
    # its encoded copy (or a list of chunks beside the joined text) peaks
    # near twice that. The budget takes the step durations first, as in a
    # compile run
    program = compile_circuit(*benchmark_scale_circuit(), params)
    time_budget(program, params)
    payload = {"scenario": "compile", "schedule": program}
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = _indented_json(payload)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert type(out) is bytes
    assert out.startswith(b'{\n  "scenario": "compile",\n  "schedule": {\n')
    assert len(out) > 500_000
    assert peak <= 1.5 * len(out)


@pytest.mark.parametrize("out_format", ["json", "csv"])
def test_state_render_holds_one_copy_of_its_bytes(out_format):
    # a dense 16-molecule state is formatted, joined and encoded a slice of
    # amplitudes at a time, straight into the output buffer: the traced peak
    # stays near the output's length, where the state's text as one list,
    # one joined str and one encoded copy peaks at several times that
    rng = np.random.default_rng(660)
    amps = rng.normal(size=2 ** 16) + 1j * rng.normal(size=2 ** 16)
    payload = {"scenario": "simulate",
               "final_state": EncodedRegisterState(amps / np.linalg.norm(amps))}
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = _render(payload, out_format)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert type(out) is bytes
    assert len(out) > 2 ** 16 * 40
    assert peak <= 1.3 * len(out)


def test_budget_and_pulse_timings_are_python_floats(geometry, params):
    program = compile_circuit([Gate("cnot", (0, 1)), Gate("cz", (0, 1)),
                               Gate("bell", (0, 1)), Gate("measure", (1,))],
                              geometry, params)
    sweeps = [a for step in program.steps for a in step.actions
              if a.kind == "sweep_pair"]
    assert len(sweeps) == 2
    for sweep in sweeps:
        assert type(sweep.hold) is float and type(sweep.duration) is float
    for echo in (False, True):
        report = time_budget(program, params, echo=echo)
        assert report.elapsed and all(type(t) is float for t in report.elapsed.values())


def test_schedule_json_round_trip(params):
    g = LayoutGeometry(topology=Topology.line(4))
    gates = [Gate("h", (0,)), Gate("cnot", (0, 1)), Gate("cz", (2, 3)),
             Gate("z", (2,), angle=0.4)]
    program = compile_circuit(gates, g, params)
    clone = reference.reference_from_json(reference.reference_to_json(program))
    assert clone == program
    assert validate_program(clone, g.topology.adjacency()) == []
    state_a, _ = simulate_program(program, g, params)
    state_b, _ = simulate_program(clone, g, params)
    assert np.max(np.abs(state_a.amplitudes - state_b.amplitudes)) < 1e-10


def test_simulated_schedule_matches_sequential_gates(params):
    g = LayoutGeometry(topology=Topology.line(3))
    adjacency = g.topology.adjacency()
    gates = [Gate("h", (0,)), Gate("cz", (0, 1)), Gate("h", (1,)),
             Gate("cnot", (1, 2)), Gate("z", (2,), angle=0.7),
             Gate("xz", (0,), angle=1.2, axis_angle=0.5), Gate("cz", (1, 2))]
    program = compile_circuit(gates, g, params)
    compiled, _ = simulate_program(program, g, params)

    state = product_state("SSS")
    for gate in gates:
        if gate.kind == "h":
            state = apply_rotation(state, gate.qubits[0], Rotation.hadamard())
        elif gate.kind == "z":
            state = apply_rotation(state, gate.qubits[0], Rotation.z(gate.angle))
        elif gate.kind == "xz":
            state = apply_rotation(state, gate.qubits[0],
                                   Rotation.xz(gate.axis_angle, gate.angle))
        elif gate.kind == "cz":
            state = ising_phase(state, *gate.qubits, math.pi, adjacency)
        elif gate.kind == "cnot":
            state = cnot(state, *gate.qubits, adjacency)
    assert np.max(np.abs(compiled.amplitudes - state.amplitudes)) < 1e-10


def test_simulate_init_prologue_resets(geometry, params):
    program = init_schedule(geometry.topology, params)
    state, events = simulate_program(program, geometry, params)
    assert events == []
    assert reference.states_equal(state.amplitudes, product_state("SS").amplitudes)


def count_resets(monkeypatch):
    """Count the simulator's full init resets; the reference keeps its own
    unpatched _reset_to_singlet."""
    calls = []
    reset = scheduler._reset_to_singlet

    def counted(state, m):
        calls.append(m)
        return reset(state, m)
    monkeypatch.setattr(scheduler, "_reset_to_singlet", counted)
    return calls


def assert_same_bits(a, b):
    assert np.array_equal(a.view(np.int64), b.view(np.int64))


def init_program(g, params, *parts):
    """The init prologue, then each part in turn: a gate list, compiled, or
    a molecule to init again in a step of its own."""
    prologue = init_schedule(g.topology, params)
    ramp = prologue.steps[0].actions[0].ramp
    steps = list(prologue.steps)
    for part in parts:
        if isinstance(part, int):
            steps.append(ScheduleStep((Action("init", (part,), duration=ramp, ramp=ramp),)))
        else:
            steps += compile_circuit(part, g, params).steps
    return ScheduleProgram(tuple(steps), g.topology.size)


@pytest.mark.parametrize("topology", [Topology.line(n) for n in range(1, 7)]
                         + [Topology.grid(4, 4)],
                         ids=[f"line{n}" for n in range(1, 7)] + ["grid4x4"])
def test_simulated_init_prologue_skips_every_reset(monkeypatch, params, topology):
    # the register starts in |S...S>, so no init of the prologue resets
    calls = count_resets(monkeypatch)
    g = LayoutGeometry(topology=topology)
    state, events = simulate_program(init_schedule(topology, params), g, params)
    assert calls == [] and events == []
    assert_same_bits(state.amplitudes, product_state("S" * topology.size).amplitudes)


def test_simulated_init_after_hadamard_matches_reference(monkeypatch, params):
    # molecule 0 leaves |S> but stays unentangled while 2 and 3 entangle;
    # the last rotations, of 1, leave 1 (still free of T) on memory axis 0,
    # so the zero test must look at 0's own axis. The init resets 0 from the
    # permuted buffer, and the circuit after it runs on the adopted state
    calls = count_resets(monkeypatch)
    g = LayoutGeometry(topology=Topology.line(4))
    before = [Gate("h", (0,)), Gate("xz", (0,), angle=0.7, axis_angle=0.3), Gate("h", (2,)),
              Gate("cz", (2, 3)), Gate("h", (3,))]
    before += [Gate("z", (1,), angle=angle) for angle in (0.4, -0.2, 0.9, 1.3)]
    after = [Gate("h", (0,)), Gate("cnot", (0, 1)), Gate("h", (3,))]
    restored, _ = simulate_program(init_program(g, params, before, 0), g, params)
    assert not molecule_view(restored.amplitudes, 0)[:, 0].any()
    assert_simulates_as_reference(init_program(g, params, before, 0, after), g, params, 0)
    assert calls == [0, 0]


@pytest.mark.parametrize("value, outcome", [(0.25, "T"), (0.75, "S")])
def test_simulated_init_after_read_matches_reference(monkeypatch, params, value, outcome):
    # molecule 0 is read from an even T/S mix beside the entangled pair 1, 2
    g = LayoutGeometry(topology=Topology.line(3))
    gates = [Gate("h", (0,)), Gate("h", (1,)), Gate("cz", (1, 2)), Gate("measure", (0,))]
    read, events = simulate_program(init_program(g, params, gates), g, params, lambda: value)
    assert [e["outcome"] for e in events] == [outcome]
    calls = count_resets(monkeypatch)
    program = init_program(g, params, gates, 0)
    state, _ = simulate_program(program, g, params, lambda: value)
    expected, _ = reference.reference_simulate_program(program, g, params, lambda: value)
    if outcome == "T":
        assert calls == [0]
        assert_same_bits(state.amplitudes, expected.amplitudes)
    else:
        # the read zeroed the T half exactly, so the init is skipped; the
        # reference renormalises once more, so it agrees only to rounding
        assert calls == []
        assert_same_bits(state.amplitudes, read.amplitudes)
        assert np.max(np.abs(state.amplitudes - expected.amplitudes)) < 1e-12


def test_simulated_init_refuses_entangled_and_missing_molecules(params):
    g = LayoutGeometry(topology=Topology.line(3))
    program = init_program(g, params, [Gate("h", (1,)), Gate("h", (2,)),
                                       Gate("cz", (1, 2))], 2)
    with pytest.raises(ValueError, match="init on molecule 2 while entangled"):
        simulate_program(program, g, params)
    for m in (3, -1):
        with pytest.raises(ValueError, match=f"molecule index {m} out of range for n=3"):
            simulate_program(init_program(g, params, m), g, params)


def test_simulate_reads_need_draw(geometry, params):
    program = compile_circuit([Gate("measure", (0,))], geometry, params)
    with pytest.raises(ValueError, match="draw required"):
        simulate_program(program, geometry, params)


def test_simulate_measure_collapses(geometry, params):
    program = compile_circuit([Gate("measure", (0,))], geometry, params)
    state, events = simulate_program(program, geometry, params,
                                     np.random.default_rng(5).random)
    assert len(events) == 1
    assert events[0]["kind"] == "read_single"
    assert events[0]["outcome"] == "S"  # |SS> start is an S eigenstate


def test_simulate_bell_records_two_reads(geometry, params):
    program = compile_circuit([Gate("bell", (0, 1))], geometry, params)
    # |SS> -> round 1 I_min deterministically; the scheduled second read
    # then sees the Hadamard-rotated state
    state, events = simulate_program(program, geometry, params,
                                     np.random.default_rng(5).random)
    assert [e["kind"] for e in events] == ["read_pair", "read_pair"]
    assert events[0]["level"] == "I_min"


def test_gate_pulse_fails_without_window(geometry):
    weak = MoleculeParams(tunnel_coupling=1.0)  # empty adiabaticity window
    with pytest.raises(CompileError, match="window"):
        compile_circuit([Gate("cz", (0, 1))], geometry, weak)
