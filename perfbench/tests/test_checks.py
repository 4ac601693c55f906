"""Tests of the benchmark's own parts: the output checkers accept real
dotmol output and reject hand-broken copies of it; the -X importtime
parser and the span tracer count what they should.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q

Not part of the repository's test suite: pyproject's testpaths is tests/.
"""
import copy
import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

import checks  # noqa: E402
import gen  # noqa: E402
from dotmol import cli  # noqa: E402


def run_cli(tmp_path, grid, gates, kind):
    rows, cols = grid
    config = {"geometry": {"topology": {"kind": "grid", "rows": rows, "cols": cols}},
              "seed": 5, "scenario": {"kind": kind}}
    path = gen.write_inputs(tmp_path, kind, config, gates)
    code, output = cli.run(cli.load_config(path), tmp_path)
    return code, json.loads(output)


@pytest.fixture
def simulated(tmp_path):
    gates = gen.random_circuit(random.Random(1), 2, 3, gen.SIMULATE_GATES)[:40]
    gates += [("measure", 0), ("measure", 4)]
    code, payload = run_cli(tmp_path, (2, 3), gates, "simulate")
    assert code in (0, 3)
    return gates, payload


@pytest.fixture
def compiled(tmp_path):
    counts = {"h": 30, "z": 10, "xz": 10, "cnot": 20, "cz": 20, "measure": 4, "bell": 4}
    gates = gen.random_circuit(random.Random(2), 3, 3, counts)
    code, payload = run_cli(tmp_path, (3, 3), gates, "compile")
    assert code in (0, 3)
    return gates, payload


def test_simulate_accepts_real_output(simulated):
    gates, payload = simulated
    assert checks.check_simulate((2, 3), gates, payload) == []


def test_simulate_rejects_wrong_amplitude(simulated):
    gates, payload = simulated
    broken = copy.deepcopy(payload)
    k = max(range(len(broken["final_state"])),
            key=lambda i: abs(complex(*broken["final_state"][i])))
    broken["final_state"][k][0] += 1e-6
    assert "differs from the reference" in checks.check_simulate((2, 3), gates, broken)[0]


def test_simulate_rejects_flipped_outcome(simulated):
    gates, payload = simulated
    broken = copy.deepcopy(payload)
    event = broken["events"][-1]
    event["outcome"] = "T" if event["outcome"] == "S" else "S"
    assert checks.check_simulate((2, 3), gates, broken) != []


def test_compile_accepts_real_output(compiled):
    gates, payload = compiled
    assert checks.check_compile((3, 3), gates, payload) == []


def _steps(payload):
    return payload["schedule"]["steps"]


def _break_overlap(payload):
    steps = _steps(payload)
    s = next(k for k, st in enumerate(steps) if len(st["actions"]) > 1)
    steps[s]["actions"][1]["molecules"] = list(steps[s]["actions"][0]["molecules"])


def _break_lonely_read(payload):
    steps = _steps(payload)
    r = next(k for k, st in enumerate(steps) if st["actions"][0]["kind"] == "read_single")
    steps[r]["actions"].append({"kind": "rotate", "molecules": [99], "duration_ns": 0.0})


def _break_adjacency(payload):
    steps = _steps(payload)
    sweep = {"kind": "sweep_pair", "molecules": [0, 1], "duration_ns": 1.0}
    steps.append({"duration_ns": 1.0, "actions": [sweep, dict(sweep, molecules=[3, 4])]})


def _break_order(payload):
    steps = _steps(payload)
    steps[0], steps[-1] = steps[-1], steps[0]


def _break_count(payload):
    steps = _steps(payload)
    s = next(k for k, st in enumerate(steps) if st["actions"][0]["kind"] == "rotate")
    del steps[s]["actions"][0]
    if not steps[s]["actions"]:
        del steps[s]


@pytest.mark.parametrize("breaker,fragment", [
    (_break_overlap, "two actions"),
    (_break_lonely_read, "shares its step"),
    (_break_adjacency, "adjacent"),
    (_break_order, "order"),
    (_break_count, "actions, circuit lowers to"),
])
def test_compile_rejects_broken_schedule(compiled, breaker, fragment):
    gates, payload = compiled
    broken = copy.deepcopy(payload)
    breaker(broken)
    problems = checks.check_compile((3, 3), gates, broken)
    assert any(fragment in p for p in problems), problems


def _bell_records(label, n, classify):
    records = []
    for k in range(n):
        cls = classify(k)
        psi = cls.startswith("psi")
        records.append({"trial": k, "input": label, "round1": "I_mid" if psi else "I_max",
                        "round2": ("I_mid" if cls == "psi_minus" else "I_max") if psi else None,
                        "classification": cls, "phi": 0.1})
    return records


def test_bell_accepts_correct_records():
    psi = _bell_records("psi_plus", 50, lambda k: "psi_plus")
    assert checks.check_bell("psi_plus", 50, psi) == []
    fair = _bell_records("phi_minus", 50, lambda k: checks.PHI_CLASSES[k % 2])
    assert checks.check_bell("phi_minus", 50, fair) == []


def test_bell_rejects_misclassified_psi():
    records = _bell_records("psi_minus", 50, lambda k: "psi_minus")
    records[7] = _bell_records("psi_minus", 8, lambda k: "psi_plus")[7]
    assert "classified as 'psi_plus'" in checks.check_bell("psi_minus", 50, records)[0]


def test_bell_rejects_phi_reaching_round_two():
    records = _bell_records("phi_plus", 50, lambda k: checks.PHI_CLASSES[k % 2])
    records[3]["round2"] = "I_mid"
    assert "past round one" in checks.check_bell("phi_plus", 50, records)[0]


def test_bell_rejects_lopsided_phi_split():
    records = _bell_records("phi_plus", 400, lambda k: checks.PHI_CLASSES[k % 10 == 0])
    assert "outside 5 sigma" in checks.check_bell("phi_plus", 400, records)[0]


def test_bell_rejects_missing_trials():
    records = _bell_records("psi_plus", 10, lambda k: "psi_plus")
    assert "10 records for 12 trials" in checks.check_bell("psi_plus", 12, records)[0]


def test_import_times_attribute_nested_packages():
    import run
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        300 |     numpy.core",
        "import time:       200 |        500 |   numpy",
        "import time:        50 |         50 |       scipy",
        "import time:        70 |        120 |     scipy.integrate",
        "import time:        30 |        650 |   dotmol.register",
        "import time:        10 |        660 | dotmol",
    ])
    times = run.import_times(stderr)
    assert times == pytest.approx({"import.numpy_s": 500e-6, "import.scipy_s": 120e-6,
                                   "import.dotmol_self_s": 40e-6})


def test_tracer_counts_calls_and_lists_absent_functions():
    import spans
    from dotmol import Rotation, apply_rotation, product_state, register
    tracer = spans.Tracer(["register.apply_rotation", "register.no_such_function"])
    tracer.install()
    try:
        state = register.apply_rotation(product_state("SS"), 0, Rotation.hadamard())
        register.cnot(state, 0, 1, frozenset({(0, 1)}))
    finally:
        tracer.uninstall()
    assert register.apply_rotation is apply_rotation
    summary = tracer.summary()
    assert tracer.absent == ["register.no_such_function"]
    assert summary["register.no_such_function"] == {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    assert summary["register.apply_rotation"]["calls"] == 3
    assert tracer.counters["amp_bytes"] == 3 * 4 * 16
    assert tracer.counters["states_allocated"] >= 4
