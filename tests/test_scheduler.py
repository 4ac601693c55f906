"""Schedule compilation, exclusion-rule validation, and time budgets."""
import json
import math

import numpy as np
import pytest
import schedule_reference as reference

from dotmol import (ECHO_FACTOR, READ_LIMIT_MESSAGE, Action, CompileError,
                    Gate, LayoutGeometry, MoleculeParams, Rotation,
                    ScheduleProgram, ScheduleStep, Topology, apply_rotation,
                    compile_circuit, init_schedule, ising_phase,
                    phase_from_waveform, product_state, simulate_program,
                    square_pulse, time_budget, validate_program)
from dotmol.cli import _indented_json


def members(step):
    return sorted(m for a in step.actions for m in a.molecules)


def test_init_line_two_steps():
    program = init_schedule(Topology.line(5))
    assert len(program.steps) == 2
    assert members(program.steps[0]) == [0, 2, 4]
    assert members(program.steps[1]) == [1, 3]
    for n in (2, 3, 7, 12):
        assert len(init_schedule(Topology.line(n)).steps) == 2


def test_init_single_molecule_one_step():
    program = init_schedule(Topology.line(1))
    assert len(program.steps) == 1


def test_init_grid_diagonal_four_steps():
    assert len(init_schedule(Topology.grid(3, 3)).steps) == 4
    assert len(init_schedule(Topology.grid(2, 2)).steps) == 4
    assert len(init_schedule(Topology.grid(4, 5)).steps) == 4


def test_init_grid_edge_only_two_steps():
    assert len(init_schedule(Topology.grid(3, 3, diagonal=False)).steps) == 2


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


def reference_topologies(rng, count):
    """Lines, diagonal grids and edge-only grids of random sizes, in turn."""
    for k in range(count):
        rows, cols = (int(x) for x in rng.integers(1, 6, size=2))
        yield (Topology.line(int(rng.integers(1, 10))),
               Topology.grid(rows, cols),
               Topology.grid(rows, cols, diagonal=False))[k % 3]


def test_init_colors_match_reference(params):
    for topology in (Topology.line(1), Topology.line(9), Topology.grid(5, 7),
                     Topology.grid(6, 4, diagonal=False), Topology.grid(1, 5)):
        assert init_schedule(topology, params) == reference.init_schedule(topology, params)


def test_topology_adjacency_is_built_once(monkeypatch, params):
    calls = []
    adjacency = Topology.adjacency

    def counted(self):
        calls.append(self)
        return adjacency(self)

    monkeypatch.setattr(Topology, "adjacency", counted)
    g = LayoutGeometry(topology=Topology.grid(64, 64))
    assert len(init_schedule(g.topology).steps) == 4
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


def scrambled_program(rng, topology, params):
    """Init, circuit and stray actions dealt at random into a few steps."""
    g = LayoutGeometry(topology=topology)
    program = compile_circuit(random_circuit(rng, topology, length=(10, 60)), g, params)
    actions = [a for step in init_schedule(topology).steps + program.steps
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
    program = compile_circuit([Gate("measure", (0,))], geometry, params,
                              read_duration=500.0)
    report = time_budget(program, params, echo=True)
    assert report.ok
    assert report.read_counts[0] == 1


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
    from dotmol import cnot
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
    from dotmol import states_equal
    program = init_schedule(geometry.topology, params)
    state, events = simulate_program(program, geometry, params)
    assert events == []
    assert states_equal(state.amplitudes, product_state("SS").amplitudes)


def test_simulate_reads_need_rng(geometry, params):
    program = compile_circuit([Gate("measure", (0,))], geometry, params)
    with pytest.raises(ValueError, match="rng"):
        simulate_program(program, geometry, params)


def test_simulate_measure_collapses(geometry, params):
    program = compile_circuit([Gate("measure", (0,))], geometry, params)
    state, events = simulate_program(program, geometry, params,
                                     np.random.default_rng(5))
    assert len(events) == 1
    assert events[0]["kind"] == "read_single"
    assert events[0]["outcome"] == "S"  # |SS> start is an S eigenstate
    assert state.charge_flags == ("11", "11")


def test_simulate_bell_records_two_reads(geometry, params):
    program = compile_circuit([Gate("bell", (0, 1))], geometry, params)
    # |SS> -> round 1 I_min deterministically; the scheduled second read
    # then sees the Hadamard-rotated state
    state, events = simulate_program(program, geometry, params,
                                     np.random.default_rng(5))
    assert [e["kind"] for e in events] == ["read_pair", "read_pair"]
    assert events[0]["level"] == "I_min"


def test_gate_pulse_fails_without_window(geometry):
    weak = MoleculeParams(tunnel_coupling=1.0)  # empty adiabaticity window
    with pytest.raises(CompileError, match="window"):
        compile_circuit([Gate("cz", (0, 1))], geometry, weak)
