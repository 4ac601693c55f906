"""CLI: config loading, circuit parsing, scenarios, exit codes, determinism."""
import ast
import csv
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import pytest
from bell_reference import reference_bell
from schedule_reference import reference_from_json, reference_to_json
from stream_reference import substream

import dotmol
from dotmol import cli
from dotmol import (BELL_LABELS, LayoutGeometry, MoleculeParams, ScheduleProgram,
                    Topology, bell_state, compile_circuit, init_schedule,
                    simulate_program, sweep_rate_window, validate_program)
from dotmol.cli import (BELL_TRIAL_LIMIT, EXIT_BUDGET_WARNINGS, EXIT_OK,
                        EXIT_PHYSICS, EXIT_USAGE, SWEEP_POINT_LIMIT,
                        ConfigError, load_config, main, parse_circuit, run)

BASE = {
    "geometry": {"topology": {"kind": "line", "n": 2}},
    "params": {},
    "seed": 7,
}


def write_run(tmp_path, scenario, circuit=None, name="run.json", **extra):
    config = dict(BASE, scenario=scenario, **extra)
    if circuit is not None:
        (tmp_path / scenario["circuit"]).write_text(circuit)
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return path


def src_env():
    """The environment with this checkout's src/ first on PYTHONPATH, for
    child interpreters."""
    src = str(Path(dotmol.__file__).parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def run_cli(config_path, out_path, *flags):
    code = main(["--config", str(config_path), "--out", str(out_path), *flags])
    return code, out_path.read_bytes() if out_path.exists() else b""


# --- circuit parsing ---

def test_parse_circuit_grammar():
    text = """
    # prepare and entangle
    h 0
    Z 1 0.5
    XZ 0 1.2 -0.3
    CNOT 0 1
    cz 1 2
    MEASURE 2
    BELL 0 1  # heralded readout
    """
    gates = parse_circuit(text)
    assert [g.kind for g in gates] == ["h", "z", "xz", "cnot", "cz",
                                       "measure", "bell"]
    assert gates[1].angle == 0.5
    assert gates[2].axis_angle == 1.2 and gates[2].angle == -0.3
    assert gates[6].qubits == (0, 1)


def test_parse_circuit_empty_and_comments():
    assert parse_circuit("") == []
    assert parse_circuit("# nothing\n\n   \n") == []


@pytest.mark.parametrize("line,fragment", [
    ("FOO 1", "unknown gate"),
    ("H", "1 argument"),
    ("H 0 1", "1 argument"),
    ("Z 0", "angle"),
    ("XZ 0 1", "axis"),
    ("CNOT 0", "2 argument"),
    ("H x", "bad index"),
    ("Z x 1.0", "bad index"),
    ("XZ y 1 2", "bad index"),
    ("CZ 0 0", "distinct"),
])
def test_parse_circuit_errors(line, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_circuit(line)


def test_parse_circuit_reports_line_numbers():
    with pytest.raises(ConfigError, match="line 3"):
        parse_circuit("H 0\n# fine\nFOO 1\n")


@pytest.mark.parametrize("line", ["Z 0 nan", "XZ 0 inf 1", "Z 0 1e400", "XZ 1 0.5 -inf"])
def test_non_finite_angles_are_circuit_errors(tmp_path, capsys, line):
    with pytest.raises(ConfigError, match="line 2: .*finite"):
        parse_circuit(f"H 0\n{line}\n")
    for kind in ("compile", "simulate"):
        path = write_run(tmp_path, {"kind": kind, "circuit": "c.txt"},
                         circuit=f"H 0\n{line}\n")
        assert main(["--config", str(path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: line 2: ") and err.count("\n") == 1


# --- config loading ---

def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="does not exist"):
        load_config(tmp_path / "nope.json")


def test_load_config_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(path)


def test_load_config_requires_scenario(tmp_path):
    path = tmp_path / "r.json"
    path.write_text(json.dumps(dict(BASE)))
    with pytest.raises(ConfigError, match="scenario"):
        load_config(path)
    path.write_text(json.dumps(dict(BASE, scenario={"kind": "dance"})))
    with pytest.raises(ConfigError, match="unknown scenario"):
        load_config(path)


def test_load_config_validates_scenarios(tmp_path):
    cases = [
        ({"kind": "compile"}, "circuit"),
        ({"kind": "compile", "circuit": "ghost.txt"}, "does not exist"),
        ({"kind": "bell", "input": "psi_zero", "trials": 5}, "input"),
        ({"kind": "bell", "input": "psi_plus"}, "trials"),
        ({"kind": "sweep", "parameter": "epsilon", "observable": "h_cc",
          "start": 0.0, "stop": 1.0, "points": 1}, "points"),
        ({"kind": "sweep", "parameter": "epsilon", "observable": "h_cc",
          "points": 5, "stop": 1.0}, "start"),
        ({"kind": "sweep", "start": 0.0, "stop": 1.0, "points": 5}, "parameter"),
    ]
    for scenario, fragment in cases:
        path = tmp_path / "r.json"
        path.write_text(json.dumps(dict(BASE, scenario=scenario)))
        with pytest.raises(ConfigError, match=fragment):
            load_config(path)


def test_load_config_rejects_bad_params(tmp_path):
    path = tmp_path / "r.json"
    path.write_text(json.dumps({
        "geometry": {"topology": {"kind": "line", "n": 2}},
        "params": {"tunnel_coupling": 900.0},
        "scenario": {"kind": "bell", "input": "psi_plus", "trials": 1}}))
    with pytest.raises(ConfigError, match="bad geometry or params"):
        load_config(path)


def test_top_level_safety_factor_sets_the_params_margin(tmp_path):
    path = write_run(tmp_path, {"kind": "bell", "input": "psi_plus", "trials": 2},
                     safety_factor=5.0)
    assert load_config(path).params.safety_factor == 5.0
    path = write_run(tmp_path, {"kind": "bell", "input": "psi_plus", "trials": 2})
    assert load_config(path).params.safety_factor == MoleculeParams().safety_factor


@pytest.mark.parametrize("margin", [5.0, 10.0, "x"])
def test_safety_factor_inside_params_is_a_usage_error(tmp_path, capsys, margin):
    path = write_run(tmp_path, {"kind": "bell", "input": "psi_plus", "trials": 2},
                     params={"safety_factor": margin})
    assert main(["--config", str(path), "--out", str(tmp_path / "o.json")]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "top-level" in err and "safety_factor" in err
    assert not (tmp_path / "o.json").exists()


def test_load_config_overrides(tmp_path):
    path = write_run(tmp_path, {"kind": "bell", "input": "psi_plus", "trials": 2})
    config = load_config(path, overrides={"seed": 99, "out_format": "csv",
                                          "echo": True})
    assert config.seed == 99
    assert config.out_format == "csv"
    assert config.echo is True
    # absent overrides keep file values
    config = load_config(path, overrides={"seed": None})
    assert config.seed == 7


BELL_SCENARIO = {"kind": "bell", "input": "psi_plus", "trials": 2}


SWEEP_SCENARIO = {"kind": "sweep", "parameter": "epsilon", "observable": "h_cc",
                  "start": 0.0, "stop": 1.0, "points": 2}


@pytest.mark.parametrize("config,key", [
    (dict(BASE, scenario=dict(BELL_SCENARIO, trials="abc")), "trials"),
    (dict(BASE, scenario=BELL_SCENARIO, seed="x"), "seed"),
    (dict(BASE, scenario=BELL_SCENARIO, safety_factor=None), "safety_factor"),
    ([dict(BASE, scenario=BELL_SCENARIO)], None),
    (dict(BASE, scenario={"kind": "compile", "circuit": 5}), "circuit"),
    (dict(BASE, scenario={"kind": "simulate", "circuit": ["c.txt"]}), "circuit"),
    (dict(BASE, scenario=BELL_SCENARIO, echo="false"), "echo"),
    (dict(BASE, scenario=BELL_SCENARIO, geometry={"topology": {
        "kind": "grid", "rows": 1, "cols": 2, "diagonal": "false"}}), "diagonal"),
    (dict(BASE, scenario=BELL_SCENARIO, safety_factor="nan"), "safety_factor"),
    (dict(BASE, scenario=BELL_SCENARIO, geometry={"topology": {"kind": "line", "n": 1e400}}),
     "n"),
    (dict(BASE, scenario=BELL_SCENARIO, geometry={"topology": {"kind": "grid", "cols": 2}}),
     "rows"),
    (dict(BASE, scenario=BELL_SCENARIO, params={"g_factor": "x"}), "g_factor"),
    (dict(BASE, scenario=BELL_SCENARIO, params={"coherence_time": math.nan}),
     "coherence_time"),
    (dict(BASE, scenario=BELL_SCENARIO, geometry={"relative_permittivity": math.nan}),
     "relative_permittivity"),
    (dict(BASE, scenario=dict(SWEEP_SCENARIO, observable=["h_cc"])), "observable"),
    (dict(BASE, scenario=BELL_SCENARIO, params={"tunnel\ncoupling": 1.0}), "tunnel\\ncoupling"),
    # JSON booleans are not numbers, although int(True) succeeds
    (dict(BASE, scenario=BELL_SCENARIO, geometry={"topology": {"kind": "line", "n": True}}),
     "n"),
    (dict(BASE, scenario=BELL_SCENARIO, geometry={"topology": {
        "kind": "grid", "rows": True, "cols": 2}}), "rows"),
    (dict(BASE, scenario=BELL_SCENARIO, geometry={"topology": {
        "kind": "grid", "rows": 2, "cols": True}}), "cols"),
    (dict(BASE, scenario=BELL_SCENARIO, seed=True), "seed"),
    (dict(BASE, scenario=dict(BELL_SCENARIO, trials=True)), "trials"),
    (dict(BASE, scenario=dict(SWEEP_SCENARIO, points=True)), "points"),
    (dict(BASE, scenario=BELL_SCENARIO, safety_factor=True), "safety_factor"),
    (dict(BASE, scenario=dict(SWEEP_SCENARIO, start=False, points=3)), "start"),
    # true would load as 1.0, a valid value for each of these keys
    (dict(BASE, scenario=BELL_SCENARIO, params={"coherence_time": True}), "coherence_time"),
    (dict(BASE, scenario=BELL_SCENARIO, params={"tunnel_coupling": True}), "tunnel_coupling"),
    (dict(BASE, scenario=BELL_SCENARIO, geometry={"relative_permittivity": True}),
     "relative_permittivity"),
    (dict(BASE, scenario=BELL_SCENARIO, geometry={"intra_dot_distance": True}),
     "intra_dot_distance"),
    # int keys refuse what int() would change; 2 and 2.0 still load
    (dict(BASE, scenario=BELL_SCENARIO, geometry={"topology": {"kind": "line", "n": 2.7}}),
     "n"),
    (dict(BASE, scenario=BELL_SCENARIO, geometry={"topology": {
        "kind": "grid", "rows": 1.5, "cols": 2}}), "rows"),
    (dict(BASE, scenario=BELL_SCENARIO, geometry={"topology": {
        "kind": "grid", "rows": 1, "cols": 2.5}}), "cols"),
    (dict(BASE, scenario=BELL_SCENARIO, seed=1.5), "seed"),
    (dict(BASE, scenario=BELL_SCENARIO, seed="3"), "seed"),
    (dict(BASE, scenario=dict(BELL_SCENARIO, trials=2.9)), "trials"),
    (dict(BASE, scenario=dict(SWEEP_SCENARIO, points=2.5)), "points"),
    # a numeric key refuses a number written as a string, and null
    (dict(BASE, scenario=BELL_SCENARIO, safety_factor="10"), "safety_factor"),
    (dict(BASE, scenario=BELL_SCENARIO, params={"tunnel_coupling": "10"}), "tunnel_coupling"),
    (dict(BASE, scenario=BELL_SCENARIO, geometry={"intra_dot_distance": None}),
     "intra_dot_distance"),
], ids=["trials", "seed", "safety_factor", "top_level_array",
        "circuit_number", "circuit_list", "echo_string", "diagonal_string",
        "safety_factor_nan", "n_infinite", "grid_without_rows", "g_factor_string",
        "coherence_time_nan", "permittivity_nan", "observable_list",
        "params_key_newline", "n_bool", "rows_bool", "cols_bool", "seed_bool",
        "trials_bool", "points_bool", "safety_factor_bool", "start_bool",
        "coherence_time_bool", "tunnel_coupling_bool", "permittivity_bool",
        "intra_dot_distance_bool", "n_fraction", "rows_fraction", "cols_fraction",
        "seed_fraction", "seed_string", "trials_fraction", "points_fraction",
        "safety_factor_string", "tunnel_coupling_string", "intra_dot_distance_null"])
def test_malformed_scalars_exit_one_without_traceback(tmp_path, capsys, config, key):
    path = tmp_path / "r.json"
    path.write_text(json.dumps(config))
    assert main(["--config", str(path), "--out", str(tmp_path / "o.json")]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err
    # the one line names the key it refuses, quoted as repr() quotes it
    if key is not None:
        assert f"'{key}'" in err, err


def test_integral_floats_load_as_int_keys(tmp_path):
    path = write_run(tmp_path, dict(BELL_SCENARIO, trials=3.0), seed=5.0,
                     geometry={"topology": {"kind": "grid", "rows": 1.0, "cols": 2.0}})
    config = load_config(path)
    assert config.seed == 5 and config.geometry.topology.size == 2
    code, blob = run_cli(path, tmp_path / "o.json")
    assert code == EXIT_OK and len(blob.splitlines()) == 3


# the stream keeps 63 bits of the root seed, so a seed outside 0..2^63-1
# would run another seed's stream: 2^70 as 0, -1 as 2^63-1
OUT_OF_RANGE_SEEDS = [-1, -5, 2 ** 63, 2 ** 70]


@pytest.mark.parametrize("seed", OUT_OF_RANGE_SEEDS)
@pytest.mark.parametrize("where", ["config", "flag"])
def test_out_of_range_seed_exits_one(tmp_path, capsys, where, seed):
    scenario = {"kind": "simulate", "circuit": "c.txt"}
    if where == "config":
        path = write_run(tmp_path, scenario, circuit="H 0\nMEASURE 0\n", seed=seed)
        flags = []
    else:
        path = write_run(tmp_path, scenario, circuit="H 0\nMEASURE 0\n")
        flags = [f"--seed={seed}"]
    out = tmp_path / "o.json"
    assert main(["--config", str(path), "--out", str(out), *flags]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    assert "'seed'" in err and str(seed) in err
    assert not out.exists()


@pytest.mark.parametrize("seed", [0, 2 ** 63 - 1])
def test_seed_bounds_run(tmp_path, seed):
    scenario, params = {"kind": "simulate", "circuit": "c.txt"}, {"coherence_time": 5000.0}
    path = write_run(tmp_path, scenario, circuit="H 0\nMEASURE 0\n", seed=seed, params=params)
    code, from_config = run_cli(path, tmp_path / "a.json")
    assert code == EXIT_OK
    plain = write_run(tmp_path, scenario, name="plain.json", params=params)
    assert run_cli(plain, tmp_path / "b.json", "--seed", str(seed)) == (code, from_config)


@pytest.mark.parametrize("config,message", [
    (dict(BASE, geometry=[]), "geometry must be a JSON object, not list"),
    (dict(BASE, geometry={"topology": [1]}), "topology must be a JSON object, not list"),
    (dict(BASE, params=[]), "params must be a JSON object, not list"),
    (dict(BASE, params=None), "params must be a JSON object, not NoneType"),
    # a key that is no field of MoleculeParams or LayoutGeometry
    (dict(BASE, params={"foo": 1}), "params key 'foo' is not known"),
    (dict(BASE, geometry={"topology": {"kind": "line", "n": 2}, "pitch": 200.0}),
     "geometry key 'pitch' is not known"),
], ids=["geometry_list", "topology_list", "params_list", "params_null",
        "params_key", "geometry_key"])
def test_non_object_sections_are_named(tmp_path, capsys, config, message):
    path = tmp_path / "r.json"
    path.write_text(json.dumps(dict(config, scenario=BELL_SCENARIO)))
    assert main(["--config", str(path)]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"


COMPILE_SCENARIO = {"kind": "compile", "circuit": "c.txt"}


@pytest.mark.parametrize("config,message", [
    (dict(BASE, typo_seed=3, scenario=BELL_SCENARIO),
     "config key 'typo_seed' is not known"),
    (dict(BASE, geometry={"topology": {"kind": "line", "n": 2, "rows": "x"}},
          scenario=BELL_SCENARIO),
     "topology key 'rows' is not known for kind 'line'"),
    (dict(BASE, geometry={"topology": {"kind": "grid", "rows": 1, "cols": 2, "n": 2}},
          scenario=BELL_SCENARIO),
     "topology key 'n' is not known for kind 'grid'"),
    (dict(BASE, geometry={"topology": {"n": 2, "diagonal": True}}, scenario=BELL_SCENARIO),
     "topology key 'diagonal' is not known for kind 'line'"),
    (dict(BASE, scenario=dict(COMPILE_SCENARIO, extra=1)),
     "scenario key 'extra' is not known for kind 'compile'"),
    (dict(BASE, scenario=dict(BELL_SCENARIO, trails=9)),
     "scenario key 'trails' is not known for kind 'bell'"),
    (dict(BASE, scenario={"kind": "sweep", "parameter": "epsilon", "observable": "h_cc",
                          "start": 0.0, "stop": 1.0, "points": 3, "input": "phi_plus"}),
     "scenario key 'input' is not known for kind 'sweep'"),
    # a top-level key inside a section is named as one
    (dict(BASE, scenario=dict(BELL_SCENARIO, seed=3)), "seed is a top-level key, not a scenario key"),
], ids=["top_level", "line_rows", "grid_n", "default_line_diagonal", "compile_extra",
        "bell_trails", "sweep_input", "seed_in_scenario"])
def test_unknown_keys_are_refused_by_name(tmp_path, capsys, config, message):
    (tmp_path / "c.txt").write_text("CZ 0 1\n")
    path = tmp_path / "r.json"
    path.write_text(json.dumps(config))
    assert main(["--config", str(path)]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"


def readme_config() -> dict:
    """The JSON example under the '### Config' heading of README.md."""
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("\n### Config\n", 1)[1]
    return json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])


def test_every_documented_key_loads(tmp_path):
    """The README's full example, with each scenario kind's keys."""
    full = readme_config()
    for circuit in (full["scenario"]["circuit"], "c.txt"):
        (tmp_path / circuit).write_text("CZ 0 1\n")
    scenarios = [full["scenario"], COMPILE_SCENARIO, BELL_SCENARIO, SWEEP_SCENARIO]
    for scenario in scenarios:
        path = tmp_path / "r.json"
        path.write_text(json.dumps(dict(full, scenario=scenario)))
        assert load_config(path).scenario == scenario
    grid = dict(full, geometry={"topology": {"kind": "grid", "rows": 2, "cols": 2,
                                             "diagonal": False}},
                scenario=BELL_SCENARIO)
    path.write_text(json.dumps(grid))
    assert load_config(path).geometry.topology.size == 4


@pytest.mark.parametrize("blob", [b'{"seed": "\xff"}', b"[" * 100_000,
                                  b'{"seed": ' + b"1" * 5000 + b"}"],
                         ids=["not_utf8", "nested_too_deep", "integer_too_long"])
def test_unreadable_config_exits_one_without_traceback(tmp_path, capsys, blob):
    path = tmp_path / "r.json"
    path.write_bytes(blob)
    assert main(["--config", str(path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("kind", ["compile", "simulate"])
def test_non_utf8_circuit_exits_one_without_record(tmp_path, capsysbinary, kind):
    path = write_run(tmp_path, {"kind": kind, "circuit": "c.txt"})
    (tmp_path / "c.txt").write_bytes(b"\xff\xfeH 0\n")
    assert main(["--config", str(path)]) == EXIT_USAGE
    captured = capsysbinary.readouterr()
    assert captured.out == b""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(b"error: cannot read circuit file 'c.txt'")


def test_config_that_cannot_be_read_exits_one_without_traceback(tmp_path, capsys,
                                                               monkeypatch):
    # an existing file whose read fails, as a write-only one does
    path = write_run(tmp_path, BELL_SCENARIO)

    def refuse(self, *args, **kwargs):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(Path, "read_text", refuse)
    assert main(["--config", str(path)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot read config {path}: [Errno 13] Permission denied\n"


LAYOUT_WARNING = ("warning: inter_molecule_distance below 10x intra_dot_distance; "
                  "next-nearest-neighbour corrections grow\n")
# a geometry that warns as it loads, and a sweep whose first points warn
WARNING_RUNS = {
    "load": (BELL_SCENARIO, {"geometry": {"intra_dot_distance": 30.0}}),
    "sweep": ({"kind": "sweep", "parameter": "inter_molecule_distance",
               "observable": "coupling_max", "start": 100.0, "stop": 400.0,
               "points": 7}, {}),
}


def quiet_run(path):
    """(exit code, output bytes) of run() with warnings ignored."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return run(load_config(path), path.parent)


@pytest.mark.parametrize("case", sorted(WARNING_RUNS))
def test_warnings_are_one_line_each(tmp_path, capsysbinary, case):
    scenario, extra = WARNING_RUNS[case]
    path = write_run(tmp_path, scenario, **extra)
    assert main(["--config", str(path)]) == EXIT_OK
    captured = capsysbinary.readouterr()
    # the sweep warns at 100 and 150 nm; the message is reported once
    assert captured.err == LAYOUT_WARNING.encode()
    assert captured.out == quiet_run(path)[1]


@pytest.mark.parametrize("case", sorted(WARNING_RUNS))
def test_warnings_as_errors_still_run(tmp_path, case):
    scenario, extra = WARNING_RUNS[case]
    path = write_run(tmp_path, scenario, **extra)
    result = subprocess.run([sys.executable, "-W", "error", "-m", "dotmol.cli",
                             "--config", str(path)],
                            env=src_env(), capture_output=True, check=False)
    assert (result.returncode, result.stdout) == quiet_run(path)
    assert result.stderr == LAYOUT_WARNING.encode()


def test_detuning_far_above_tc_runs_without_a_warning(tmp_path, capsys):
    # eps - hypot(eps, 2 Tc) rounds to zero over most of this range
    path = write_run(tmp_path, {"kind": "sweep", "parameter": "epsilon",
                                "observable": "adiabatic_angle", "start": 0.0,
                                "stop": 4e12, "points": 5},
                     params={"charging_energy": 1e13})
    assert main(["--config", str(path)]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ""
    angles = [v for _, v in json.loads(captured.out)["rows"]]
    assert angles == [-math.pi / 4] + [-math.pi / 2] * 4
    path = write_run(tmp_path, {"kind": "compile", "circuit": "c.txt"},
                     circuit="CZ 0 1\nBELL 0 1\n", params={"charging_energy": 1e20})
    assert main(["--config", str(path)]) in (EXIT_OK, EXIT_BUDGET_WARNINGS)
    assert capsys.readouterr().err == ""


def test_circuit_gone_before_run_is_a_config_error(tmp_path):
    path = write_run(tmp_path, {"kind": "compile", "circuit": "c.txt"},
                     circuit="H 0\n")
    config = load_config(path)
    (tmp_path / "c.txt").unlink()
    with pytest.raises(ConfigError, match="cannot read circuit file"):
        run(config, tmp_path)


# --- scenarios through main() ---

def test_usage_errors_exit_one(tmp_path):
    assert main(["--config", str(tmp_path / "missing.json")]) == EXIT_USAGE
    assert main([]) == EXIT_USAGE  # --config is required
    path = write_run(tmp_path, {"kind": "compile", "circuit": "c.txt"},
                     circuit="FOO 1\n")
    assert main(["--config", str(path), "--out",
                 str(tmp_path / "o.json")]) == EXIT_USAGE


def test_compile_scenario_round_trips(tmp_path):
    # a 1 us read only fits with a stretched coherence budget
    path = write_run(tmp_path, {"kind": "compile", "circuit": "c.txt"},
                     circuit="H 0\nCNOT 0 1\nMEASURE 1\n",
                     params={"coherence_time": 5000.0})
    code, blob = run_cli(path, tmp_path / "out.json")
    assert code == EXIT_OK
    payload = json.loads(blob)
    assert payload["scenario"] == "compile"
    assert payload["validation"] == []
    assert payload["budget"]["violations"] == []
    program = reference_from_json(payload["schedule"])
    assert validate_program(program, Topology.line(2).adjacency()) == []
    actions = [a for s in payload["schedule"]["steps"] for a in s["actions"]]
    assert [a["kind"] for a in actions] == ["rotate", "rotate", "sweep_pair",
                                            "rotate", "read_single"]
    assert actions[-1]["read_duration_ns"] == 1000.0
    assert actions[2]["ramp_ns"] > 0 and actions[2]["hold_ns"] > 0
    for step in payload["schedule"]["steps"]:
        assert "duration_ns" in step


def test_compile_empty_circuit(tmp_path):
    path = write_run(tmp_path, {"kind": "compile", "circuit": "c.txt"},
                     circuit="# nothing to do\n")
    code, blob = run_cli(path, tmp_path / "out.json")
    assert code == EXIT_OK
    assert json.loads(blob)["schedule"]["steps"] == []


def test_rotation_only_circuit_compiles_without_a_sweep_window(tmp_path):
    # tunnel_coupling 1.0 leaves the adiabaticity window empty; rotations
    # need no sweep, so only a gate pulse or a read would be refused
    assert sweep_rate_window(MoleculeParams(tunnel_coupling=1.0)).is_empty
    path = write_run(tmp_path, {"kind": "compile", "circuit": "c.txt"},
                     circuit="H 0\nZ 1 0.5\nXZ 0 1.2 -0.3\n",
                     params={"tunnel_coupling": 1.0})
    code, blob = run_cli(path, tmp_path / "out.json")
    assert code == EXIT_OK
    assert [a["kind"] for step in json.loads(blob)["schedule"]["steps"]
            for a in step["actions"]] == ["rotate"] * 3
    (tmp_path / "c.txt").write_text("H 0\nMEASURE 1\n")
    code, blob = run_cli(path, tmp_path / "out2.json")
    assert code == EXIT_PHYSICS


# every gate kind repeated, with two spellings of the zero angle and of
# one nonzero angle: a memo keyed by Gate or Action equality would write
# Z 0 -0.0 as its 0.0 twin
REPEATED_CIRCUIT = """H 0
CZ 0 1
Z 0 0.0
Z 0 -0.0
Z 1 0.5
Z 1 0.50
CNOT 1 2
MEASURE 2
BELL 0 1
H 0
CZ 0 1  # a comment does not make the line new
CNOT 1 2
Z 0 -0.0
Z 0 0.0
MEASURE 2
BELL 0 1
H 2
Z 1 0.50
"""


def test_repeated_lines_are_written_as_the_reference_encoder_writes(tmp_path):
    path = write_run(tmp_path, {"kind": "compile", "circuit": "c.txt"},
                     circuit=REPEATED_CIRCUIT, params={"coherence_time": 1e6},
                     geometry={"topology": {"kind": "line", "n": 3}})
    code, blob = run_cli(path, tmp_path / "out.json")
    assert code == EXIT_OK
    config = load_config(path)
    # the same gates as distinct objects, so no lowering is shared
    gates = [replace(gate) for gate in parse_circuit(REPEATED_CIRCUIT)]
    program = compile_circuit(gates, config.geometry, config.params)
    payload = json.loads(blob)
    payload["schedule"] = reference_to_json(program)
    assert blob == (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode()
    angles = [a["rotation"]["angle"] for step in payload["schedule"]["steps"]
              for a in step["actions"] if a["molecules"] == [0]
              and a["rotation"]["kind"] == "uz"]
    assert [math.copysign(1.0, x) for x in angles] == [1.0, -1.0, -1.0, 1.0]
    assert b'"angle": -0.0' in blob and b'"angle": 0.0' in blob


def test_repeated_bad_line_reports_its_first_line():
    with pytest.raises(ConfigError, match="^line 2: "):
        parse_circuit("H 0\nCZ 0 0\nH 1\nCZ 0 0\n")
    with pytest.raises(ConfigError, match="^line 3: unknown gate"):
        parse_circuit("H 0\nH 0\nFOO 1\nFOO 1\n")


def test_no_state_survives_a_run(tmp_path):
    # the two circuits share lines, and the margin changes every sweep,
    # so anything kept from A would change B's bytes
    a = write_run(tmp_path, {"kind": "compile", "circuit": "a.txt"},
                  circuit=REPEATED_CIRCUIT, name="a.json",
                  geometry={"topology": {"kind": "line", "n": 3}})
    b = write_run(tmp_path, {"kind": "compile", "circuit": "b.txt"},
                  circuit="".join(reversed(REPEATED_CIRCUIT.splitlines(True))),
                  name="b.json", safety_factor=5.0,
                  geometry={"topology": {"kind": "line", "n": 3}})
    assert run_cli(a, tmp_path / "a.out")[0] in (EXIT_OK, EXIT_BUDGET_WARNINGS)
    code, blob = run_cli(b, tmp_path / "b.out")
    fresh = subprocess.run([sys.executable, "-m", "dotmol.cli", "--config", str(b)],
                           env=src_env(), capture_output=True, check=False)
    assert (code, blob) == (fresh.returncode, fresh.stdout)


def test_compile_budget_warnings_exit_three(tmp_path):
    path = write_run(tmp_path, {"kind": "compile", "circuit": "c.txt"},
                     circuit="CZ 0 1\n" * 6)
    code, blob = run_cli(path, tmp_path / "out.json")
    assert code == EXIT_BUDGET_WARNINGS
    rules = {v["rule"] for v in json.loads(blob)["budget"]["violations"]}
    assert rules == {"coherence-budget"}
    # the same schedule fits under an echo-extended window
    code, blob = run_cli(path, tmp_path / "out2.json", "--echo")
    assert code == EXIT_OK


def test_compile_rejects_nonadjacent_gate(tmp_path):
    config = {"geometry": {"topology": {"kind": "line", "n": 6}},
              "scenario": {"kind": "compile", "circuit": "c.txt"}}
    (tmp_path / "c.txt").write_text("CNOT 0 5\n")
    path = tmp_path / "r.json"
    path.write_text(json.dumps(config))
    code, blob = run_cli(path, tmp_path / "out.json")
    assert code == EXIT_PHYSICS
    error = json.loads(blob)["error"]
    assert error["type"] == "CompileError"
    assert "routing" in error["message"]


def test_simulate_scenario_deterministic(tmp_path):
    path = write_run(tmp_path, {"kind": "simulate", "circuit": "c.txt"},
                     circuit="H 0\nCNOT 0 1\nMEASURE 0\n",
                     params={"coherence_time": 5000.0})
    code_a, blob_a = run_cli(path, tmp_path / "a.json")
    code_b, blob_b = run_cli(path, tmp_path / "b.json")
    assert code_a == code_b == EXIT_OK
    assert blob_a == blob_b
    payload = json.loads(blob_a)
    assert payload["charge_flags"] == ["11", "11"]
    assert [e["kind"] for e in payload["events"]] == ["read_single"]
    assert len(payload["final_state"]) == 4


def test_simulate_refuses_oversized_register(tmp_path):
    # a 6x6 grid would need 2^36 amplitudes; refused before any allocation
    config = {"geometry": {"topology": {"kind": "grid", "rows": 6, "cols": 6}},
              "scenario": {"kind": "simulate", "circuit": "c.txt"}}
    (tmp_path / "c.txt").write_text("H 0\n")
    path = tmp_path / "r.json"
    path.write_text(json.dumps(config))
    code, blob = run_cli(path, tmp_path / "out.json")
    assert code == EXIT_PHYSICS
    error = json.loads(blob)["error"]
    assert error["type"] == "ValueError"
    assert "36 molecules" in error["message"] and "\n" not in error["message"]


def test_simulate_seed_flag_changes_the_stream(tmp_path):
    path = write_run(tmp_path, {"kind": "simulate", "circuit": "c.txt"},
                     circuit="H 0\nMEASURE 0\n",
                     params={"coherence_time": 5000.0})
    outcomes = set()
    for seed in range(8):
        _, blob = run_cli(path, tmp_path / f"s{seed}.json", "--seed", str(seed))
        outcomes.add(json.loads(blob)["events"][0]["outcome"])
    assert outcomes == {"S", "T"}  # a fair coin across seeds hits both


@pytest.mark.parametrize("seed", [7, 0, 2 ** 63 - 1])
def test_simulate_reads_match_the_reference_stream(tmp_path, seed):
    # 160 reads, each a fair coin or a Bell round: simulate must draw them,
    # in program order, as simulate_program fed by substream(seed, "simulate")
    circuit = "H 0\nH 1\nMEASURE 0\nBELL 1 2\nH 2\nCNOT 1 2\nMEASURE 2\n" * 40
    path = write_run(tmp_path, {"kind": "simulate", "circuit": "c.txt"},
                     circuit=circuit, geometry={"topology": {"kind": "line", "n": 3}})
    code, blob = run_cli(path, tmp_path / "out.json", "--seed", str(seed))
    got = json.loads(blob)
    g, params = LayoutGeometry(topology=Topology.line(3)), MoleculeParams()
    program = ScheduleProgram(init_schedule(g.topology, params).steps
                              + compile_circuit(parse_circuit(circuit), g, params).steps, 3)
    state, events = simulate_program(program, g, params, substream(seed, "simulate").random)
    assert code == EXIT_BUDGET_WARNINGS  # every read breaks today's budget
    # 80 single reads and 40 round-one pair reads run; round two only
    # after a round-one I_mid, which some rounds read and some do not
    kinds = [e["kind"] for e in events]
    assert kinds.count("read_single") == 80 and 40 < kinds.count("read_pair") < 80
    assert {e["outcome"] for e in events if e["kind"] == "read_single"} == {"S", "T"}
    assert got["events"] == events
    assert got["final_state"] == [[a.real, a.imag] for a in state.amplitudes.tolist()]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_simulate_bell_on_ss_reads_round_one_only(tmp_path, seed):
    # the register starts in |SS>: round one reads I_min, so round two's
    # Hadamards and read never run and the state keeps only its SS amplitude
    path = write_run(tmp_path, {"kind": "simulate", "circuit": "c.txt"},
                     circuit="BELL 0 1\n", seed=seed)
    code, blob = run(load_config(path), tmp_path)
    payload = json.loads(blob)
    assert [(e["kind"], e["level"]) for e in payload["events"]] == [("read_pair", "I_min")]
    assert payload["final_state"][:3] == [[0.0, 0.0]] * 3


def test_simulate_csv_rendering(tmp_path):
    path = write_run(tmp_path, {"kind": "simulate", "circuit": "c.txt"},
                     circuit="H 0\n", format="csv")
    code, blob = run_cli(path, tmp_path / "out.csv")
    assert code == EXIT_OK
    lines = blob.decode().splitlines()
    assert lines[0] == "index,re,im"
    assert len(lines) == 5
    amplitudes = [float(line.split(",")[1]) for line in lines[1:]]
    assert sum(a * a for a in amplitudes) == pytest.approx(1.0)


def bell_rows(blob):
    return [json.loads(line) for line in blob.decode().splitlines()]


def test_bell_scenario_counts_and_determinism(tmp_path):
    scenario = {"kind": "bell", "input": "psi_minus", "trials": 40}
    path = write_run(tmp_path, scenario)
    code, blob = run_cli(path, tmp_path / "a.json")
    assert code == EXIT_OK
    rows = bell_rows(blob)
    assert len(rows) == 40  # one JSON line per trial
    assert all(r["classification"] == "psi_minus" for r in rows)
    assert all(r["round1"] == "I_mid" and r["round2"] == "I_mid" for r in rows)
    _, again = run_cli(path, tmp_path / "b.json")
    assert again == blob


def test_bell_adding_trials_keeps_earlier_lines(tmp_path):
    blobs = {}
    for trials in (5, 8):
        path = write_run(tmp_path, {"kind": "bell", "input": "phi_plus",
                                    "trials": trials}, name=f"r{trials}.json")
        _, blobs[trials] = run_cli(path, tmp_path / f"o{trials}.json")
    assert blobs[8].decode().splitlines()[:5] == blobs[5].decode().splitlines()


@pytest.mark.parametrize("out_format, trials", [
    *[pytest.param("json", trials, id=str(trials)) for trials in (1, 6, 7, 13)],
    *[pytest.param("csv", trials, id=f"csv-{trials}") for trials in (1, 6, 7, 13)]])
def test_bell_lines_written_in_slices_join_up(tmp_path, monkeypatch, out_format, trials):
    # slices of 3 trials: the last slice full or short, and one slice alone
    path = write_run(tmp_path, {"kind": "bell", "input": "psi_plus",
                                "trials": trials}, format=out_format)
    _, whole = run_cli(path, tmp_path / "whole.out")
    monkeypatch.setattr(cli, "_BELL_SLICE", 3)
    _, sliced = run_cli(path, tmp_path / "sliced.out")
    assert sliced == whole
    if out_format == "csv":
        # the rows csv.writer writes for the JSON records of the same run
        _, records = run_cli(path, tmp_path / "records.json", "--format", "json")
        text = io.StringIO()
        writer = csv.writer(text, lineterminator="\n")
        writer.writerow(["trial", "seed", "input", "round1", "round2",
                         "classification", "phi"])
        writer.writerows([r["trial"], r["seed"], r["input"], r["round1"], r["round2"] or "",
                          r["classification"], repr(r["phi"])] for r in bell_rows(records))
        assert sliced == text.getvalue().encode()
        return
    rows = [json.loads(line) for line in sliced.decode().splitlines()]
    assert [row["trial"] for row in rows] == list(range(trials))
    assert sliced.endswith(b"}\n")


def test_bell_psi_plus_always_heralds(tmp_path):
    path = write_run(tmp_path, {"kind": "bell", "input": "psi_plus",
                                "trials": 30})
    _, blob = run_cli(path, tmp_path / "out.json")
    rows = bell_rows(blob)
    assert all(r["classification"] == "psi_plus" for r in rows)
    assert all(r["round1"] == "I_mid" and r["round2"] in ("I_max", "I_min")
               for r in rows)


def test_bell_csv_rendering(tmp_path):
    path = write_run(tmp_path, {"kind": "bell", "input": "phi_plus",
                                "trials": 5}, format="csv")
    code, blob = run_cli(path, tmp_path / "out.csv")
    assert code == EXIT_OK
    lines = blob.decode().splitlines()
    assert lines[0] == "trial,seed,input,round1,round2,classification,phi"
    assert len(lines) == 6
    assert all(line.split(",")[2] == "phi_plus" for line in lines[1:])


# sha256 of `bell` JSON output, 50 trials, as written before the branch
# table; psi_minus never draws a different outcome, so both seeds agree
BELL_GOLDEN = {
    (7, "phi_plus"): "40545d333cc709e09879f4a5c160749a408c2706297f38f464fd0ed64c981449",
    (7, "phi_minus"): "29e10dad91d9a843049e1e58b154b83475ff7544f186b8a7fdd6f5b32cf7f229",
    (7, "psi_plus"): "6799bc286a60c4b6cd7be8c06c027b3457d18004141e57a9841e73e7be01027b",
    (7, "psi_minus"): "bdd80d065f3c7b6b72dc0cc6e216382f8d0dd34af9f45b385301960e1ce04c6f",
    (1201, "phi_plus"): "d5659ad6e2fc5badcb7bb6e43ab39112f2fea9ab20af32812d6d0eac19d4827c",
    (1201, "phi_minus"): "5492ac42a9f5d615302e7709bd91ef14bd42164d6bf685a875d59d4e5c591a33",
    (1201, "psi_plus"): "66fff922e21cc7942159baa4ff39dc1a09fe57f7f8e5386fcabfe1fae68de5d6",
    (1201, "psi_minus"): "bdd80d065f3c7b6b72dc0cc6e216382f8d0dd34af9f45b385301960e1ce04c6f",
}


@pytest.mark.parametrize("seed,label", sorted(BELL_GOLDEN))
def test_bell_output_bytes_are_pinned(tmp_path, seed, label):
    path = write_run(tmp_path, {"kind": "bell", "input": label, "trials": 50},
                     seed=seed)
    code, blob = run_cli(path, tmp_path / "out.json")
    assert code == EXIT_OK
    assert hashlib.sha256(blob).hexdigest() == BELL_GOLDEN[seed, label]


@pytest.mark.parametrize("label", BELL_LABELS)
def test_bell_table_path_matches_step_by_step_reference(tmp_path, label):
    cfg = load_config(write_run(tmp_path, {"kind": "bell", "input": label,
                                           "trials": 500}, seed=11))
    code, blob = run(cfg, tmp_path)
    assert code == EXIT_OK
    rows = bell_rows(blob)
    assert len(rows) == 500
    for row in rows:
        draw = substream(11, "bell", label, row["trial"]).random
        expected = reference_bell(bell_state(label), 0, 1, cfg.geometry,
                                  cfg.params, draw)[:4]
        assert (row["round1"], row["round2"], row["classification"],
                row["phi"]) == expected


def json_run(tmp_path, case, seed):
    """Config path of one indented-JSON case; the seed draws its inputs."""
    if case.endswith("_margin5"):
        # the same input with a top-level sweep margin of 5
        path = json_run(tmp_path, case.removesuffix("_margin5"), seed)
        path.write_text(json.dumps(dict(json.loads(path.read_text()), safety_factor=5.0)))
        return path
    rnd = random.Random(seed)
    if case in ("compile", "simulate", "simulate_bell"):
        # simulate_bell keeps the BELL lines, so scheduled pair reads run
        simulate = case.startswith("simulate")
        topology = Topology.grid(2, 2) if simulate else Topology.grid(2, 3)
        pairs = sorted(topology.adjacency())
        lines = []
        for _ in range(40):
            op = rnd.choice(["H", "Z", "XZ", "CNOT", "CZ", "MEASURE", "BELL"])
            if op in ("CNOT", "CZ", "BELL"):
                lines.append(f"{op} {' '.join(map(str, rnd.choice(pairs)))}")
            else:
                angles = {"H": [], "MEASURE": [], "Z": [rnd.uniform(-4, 4)],
                          "XZ": [rnd.uniform(0, 3), rnd.uniform(-4, 4)]}[op]
                lines.append(" ".join([op, str(rnd.randrange(topology.size)),
                                       *map(repr, angles)]))
        if case == "simulate":
            lines = [line for line in lines if not line.startswith("BELL")]
        return write_run(tmp_path, {"kind": "simulate" if simulate else case,
                                    "circuit": "c.txt"},
                         circuit="\n".join(lines) + "\n", seed=seed,
                         geometry={"topology": {"kind": "grid", "rows": topology.rows,
                                                "cols": topology.cols}},
                         params={"coherence_time": rnd.choice([5e6, 5e7])})
    if case == "compile_budget":
        # CZ rounds on a line overrun the default coherence window
        cz = [f"CZ {i} {i + 1}" for _ in range(4) for i in range(rnd.randint(2, 4))]
        return write_run(tmp_path, {"kind": "compile", "circuit": "c.txt"},
                         circuit="\n".join(cz) + "\nMEASURE 0\n", seed=seed,
                         geometry={"topology": {"kind": "line", "n": 5}})
    if case == "sweep_epsilon":
        return write_run(tmp_path, {"kind": "sweep", "parameter": "epsilon",
                                    "observable": rnd.choice(["h_cc", "branch_gap"]),
                                    "start": rnd.uniform(-3000, 0), "stop": rnd.uniform(0, 3000),
                                    "points": rnd.randint(5, 40)}, seed=seed)
    if case == "sweep_distance":
        return write_run(tmp_path, {"kind": "sweep", "parameter": "inter_molecule_distance",
                                    "observable": rnd.choice(["nnn_ratio", "coupling_max"]),
                                    "start": rnd.uniform(200, 300), "stop": rnd.uniform(300, 900),
                                    "points": rnd.randint(5, 40)}, seed=seed)
    # a physics error whose message quotes a name with escapes and non-ASCII
    return write_run(tmp_path, {"kind": "sweep", "parameter": "epsilon",
                                "observable": f"h\u00e9\"{rnd.randint(0, 99)}\\\t",
                                "start": 0.0, "stop": 1.0, "points": 3}, seed=seed)


# sha256 and exit code of the indented-JSON output of each case, as written
# by json.dumps(payload, sort_keys=True, indent=2) before the direct writer
# (simulate_bell: by the direct writer, before the scheduled pair read
# shared measurement's sweep functions; *_margin5: before the sweep margin
# moved from a run setting into MoleculeParams; sweep_distance-1201, which
# sweeps nnn_ratio: after its cancellation-free form moved the values in
# their 13th-16th digits; compile*: after a BELL's round-two actions were
# marked "heralded"; simulate_bell*-7: after round two ran only after a
# round-one I_mid, which drops three of its ten reads. At seed 1201 every
# BELL reads I_mid, so those pins stand).
# The simulate* hashes (here and in CSV_GOLDEN) were taken with numpy
# dispatching X86_V3 or X86_V4 kernels. At numpy's X86_V2 baseline
# (NPY_DISABLE_CPU_FEATURES="X86_V3 X86_V4 AVX512_ICL AVX512_SPR") complex
# products round differently and these eight pins fail on unchanged code.
# What holds at every level is checked by the simulator reference tests in
# test_scheduler.py.
JSON_GOLDEN = {
    ("compile", 7): (0, "ae9f38a4852964a1e2ebb41d8e3f34243289ac84bdc35aba69b5629cc9fcc540"),
    ("compile", 1201): (0, "f3e16fe8279e2ed26f28256d7e5e43ad41055f7ce5108e7fd3399949215be032"),
    ("compile_margin5", 7): (0, "55d35f67ea6e48ead0301834dc80deadea99331f4ffc17886e258ee6c0a52ee3"),
    ("compile_margin5", 1201): (0, "1bc123064803976b2246f8a912dcf9be9e6fa21ffa5f452988b22d39eee9969a"),
    ("compile_budget", 7): (3, "f88a7e925e7718ab8bccebb77ebbcec3dbba39fd19c84a558925c9767cea7507"),
    ("compile_budget", 1201): (3, "d24578ab4acfbf6db3c2c0e47af259ab0a65513b96517397589e811b5df5fb7e"),
    ("simulate", 7): (0, "fe4655036e8799ea52fcbb46d04968584e599566e668b4e1bea5534d4a129a4a"),
    ("simulate", 1201): (0, "973f34b6e5bd806fac2bddc7e26613f9c27bc6bfc796d46fbbfdfbf293460fd7"),
    ("simulate_bell", 7): (0, "077f35ad9afb772145e7fe9268a44fba586b08b6e9b0104d07df2a40ffdea1ce"),
    ("simulate_bell", 1201): (0, "b60a2e6819503a6fe4fe05a9059e573f35aa53bd4ef01d91ad11624d88f97643"),
    ("simulate_bell_margin5", 7): (0, "c3a9816c7da0b02d7346d03c80d2794ab2e949a98d02f0b20ab582e0c59fc30a"),
    ("simulate_bell_margin5", 1201): (0, "41b374fa04a73ea9c9d47d0dc02a401413c54065aecc1a68a7f9965b6f702c3b"),
    ("sweep_epsilon", 7): (0, "bab91f7c48731aab141969b59e1f3b0c29b62951fb10ec63d3864d68feb978ec"),
    ("sweep_epsilon", 1201): (0, "2fc385fb3b47ff05b83dbe29051493ffb34e5b8ab683f2bc7c17b4a6e7300928"),
    ("sweep_distance", 7): (0, "8efdfa3a0aef3f9c192e8328e5438405617729ca191a817526a78b877e03ebe4"),
    ("sweep_distance", 1201): (0, "41dc042b89473084091a8cebe69704ebbcf578dd110b1fed2e42a55f771e1558"),
    ("error", 7): (2, "e19e3029c99b3bf6b5d32fd525809e588afe494c067efdd9fd50973759dae493"),
    ("error", 1201): (2, "8e9da87d60e8e23aec9bca766666c236b511330b68a52fa9a5c8f858ade7487a"),
}


@pytest.mark.parametrize("case,seed", sorted(JSON_GOLDEN))
def test_json_output_bytes_are_pinned(tmp_path, case, seed):
    code, blob = run_cli(json_run(tmp_path, case, seed), tmp_path / "out.json")
    assert (code, hashlib.sha256(blob).hexdigest()) == JSON_GOLDEN[case, seed]


# sha256 of the simulate cases above written as CSV, from before the CSV
# branch read the state object (simulate) and before the scheduled pair
# read shared measurement's sweep functions (simulate_bell; at seed 7,
# after round two ran only after a round-one I_mid)
CSV_GOLDEN = {
    7: {"simulate": "07e7051753c759afd42c6824f7cde3e3777f138d4ccf5553047c5ba8a8fd741b",
        "simulate_bell": "ae1a482095da41a6f076aaccc34f4bade3c31e7a772107ce2ad623f787f58165"},
    1201: {"simulate": "f54b1044cec9d920f2ee98df0812ff95d28772131b828dc755c9b5869f53e32d",
           "simulate_bell": "2e886f469f7cc73c681bdaac05b6522f67dd3bcf96e4a7c3bf52b6cb56180486"},
}


@pytest.mark.parametrize("seed", sorted(CSV_GOLDEN))
def test_simulate_csv_bytes_are_pinned(tmp_path, seed):
    for case, digest in CSV_GOLDEN[seed].items():
        code, blob = run_cli(json_run(tmp_path, case, seed),
                             tmp_path / f"{case}.csv", "--format", "csv")
        assert (case, code, hashlib.sha256(blob).hexdigest()) == (case, EXIT_OK, digest)


def test_sweep_epsilon_h_cc_monotone(tmp_path):
    path = write_run(tmp_path, {"kind": "sweep", "parameter": "epsilon",
                                "observable": "h_cc", "start": -2000.0,
                                "stop": 2000.0, "points": 21}, format="csv")
    code, blob = run_cli(path, tmp_path / "out.csv")
    assert code == EXIT_OK
    lines = blob.decode().splitlines()
    assert lines[0] == "epsilon,h_cc"
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert len(values) == 21
    assert all(b > a for a, b in zip(values, values[1:]))


def test_sweep_distance_coupling_decreases(tmp_path):
    path = write_run(tmp_path, {"kind": "sweep",
                                "parameter": "inter_molecule_distance",
                                "observable": "coupling_max", "start": 200.0,
                                "stop": 500.0, "points": 8})
    code, blob = run_cli(path, tmp_path / "out.json")
    assert code == EXIT_OK
    rows = json.loads(blob)["rows"]
    values = [v for _, v in rows]
    assert all(b < a for a, b in zip(values, values[1:]))
    assert all(v > 0 for v in values)


def test_far_nnn_ratio_sweep_reaches_one_eighth(tmp_path):
    # the ratio's defining differences once cancelled to 0/0 from 1e10 nm,
    # and a sweep out there exited 2 with "float division by zero"
    path = write_run(tmp_path, {"kind": "sweep",
                                "parameter": "inter_molecule_distance",
                                "observable": "nnn_ratio", "start": 1e9,
                                "stop": 1e300, "points": 50})
    code, blob = run_cli(path, tmp_path / "out.json")
    assert code == EXIT_OK
    rows = json.loads(blob)["rows"]
    assert len(rows) == 50
    assert all(math.isclose(v, 0.125, rel_tol=1e-15) for _, v in rows)


def test_sweep_out_of_range_is_a_physics_error(tmp_path):
    # a descending sweep is checked against the range too
    for start, stop in ((-9000.0, 9000.0), (9000.0, 0.0)):
        path = write_run(tmp_path, {"kind": "sweep", "parameter": "epsilon",
                                    "observable": "h_cc", "start": start,
                                    "stop": stop, "points": 5})
        code, blob = run_cli(path, tmp_path / "out.json")
        assert code == EXIT_PHYSICS
        error = json.loads(blob)["error"]
        assert error["type"] == "ValueError"
        assert "within" in error["message"]


def test_inline_nnn_ratio_sweep_is_a_physics_error(tmp_path):
    # the next-nearest ratio has a closed form only for stacked dots
    path = write_run(tmp_path, {"kind": "sweep", "parameter": "inter_molecule_distance",
                                "observable": "nnn_ratio", "start": 200.0,
                                "stop": 400.0, "points": 3},
                     geometry={"topology": {"kind": "line", "n": 3}, "layout": "in_line"})
    code, blob = run_cli(path, tmp_path / "out.json")
    assert code == EXIT_PHYSICS
    error = json.loads(blob)["error"]
    assert error["type"] == "ValueError" and "perpendicular" in error["message"]


def test_sweep_unknown_observable_is_reported(tmp_path):
    path = write_run(tmp_path, {"kind": "sweep", "parameter": "epsilon",
                                "observable": "magic", "start": 0.0,
                                "stop": 1.0, "points": 3})
    code, blob = run_cli(path, tmp_path / "out.json")
    assert code == EXIT_PHYSICS
    assert "magic" in json.loads(blob)["error"]["message"]


def test_format_flag_overrides_config(tmp_path):
    path = write_run(tmp_path, {"kind": "sweep", "parameter": "epsilon",
                                "observable": "sin_sq_theta", "start": -100.0,
                                "stop": 100.0, "points": 3})
    code, blob = run_cli(path, tmp_path / "out.csv", "--format", "csv")
    assert code == EXIT_OK
    assert blob.decode().splitlines()[0] == "epsilon,sin_sq_theta"


def test_compile_has_no_csv_rendering(tmp_path):
    path = write_run(tmp_path, {"kind": "compile", "circuit": "c.txt"},
                     circuit="H 0\n")
    code = main(["--config", str(path), "--format", "csv",
                 "--out", str(tmp_path / "out.csv")])
    assert code == EXIT_USAGE


def test_compile_csv_is_refused_before_compiling(tmp_path, capsysbinary):
    # CNOT 0 5 on line(6) cannot compile; the format is refused first
    path = write_run(tmp_path, {"kind": "compile", "circuit": "c.txt"},
                     circuit="CNOT 0 5\n", format="csv",
                     geometry={"topology": {"kind": "line", "n": 6}})
    assert main(["--config", str(path)]) == EXIT_USAGE
    captured = capsysbinary.readouterr()
    assert captured.out == b""
    assert captured.err == b"error: scenario 'compile' has no CSV rendering; use json\n"


def test_stdout_when_no_out_flag(tmp_path, capsysbinary):
    path = write_run(tmp_path, {"kind": "sweep", "parameter": "epsilon",
                                "observable": "sin_sq_theta", "start": -10.0,
                                "stop": 10.0, "points": 2})
    assert main(["--config", str(path)]) == EXIT_OK
    captured = capsysbinary.readouterr()
    assert json.loads(captured.out)["scenario"] == "sweep"


def test_every_public_name_resolves():
    missing = [name for name in dotmol.__all__ if not hasattr(dotmol, name)]
    assert missing == []
    assert len(set(dotmol.__all__)) == len(dotmol.__all__)


# the rule every public name answers to: src/ (without the re-exports in
# __init__.py) or the CLI uses it. Each exemption names the open ROADMAP
# item that gives the name its caller.
UNCALLED_PUBLIC_NAMES = {
    "controlled_phase_hold_time": "item 1a replaces it with per-class holds",
    "inline_interaction": "item 1a sizes in-line gates on it",
    "inline_crosstalk": "item 1a compensates it with uz rotations",
    "validate_waveform": "item 7 wires it into compile after 1a",
    "stream_token": "item 2 keeps it as the Bell record's seed",
}


def test_every_public_name_is_used_by_the_package():
    referenced = set()
    for path in Path(dotmol.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.asname or node.name)
    unused = set(dotmol.__all__) - referenced
    assert sorted(unused) == sorted(UNCALLED_PUBLIC_NAMES)


def test_closed_stdout_exits_one_without_traceback(tmp_path, capsys, monkeypatch):
    class ClosedPipe:
        """A stdout over a file descriptor whose every write is refused."""

        def __init__(self, fd):
            self.buffer, self.fd = self, fd

        def write(self, data):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            pass

        def fileno(self):
            return self.fd

    path = write_run(tmp_path, BELL_SCENARIO)
    sink = tmp_path / "stdout"
    fd = os.open(sink, os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", ClosedPipe(fd))
        assert main(["--config", str(path)]) == EXIT_USAGE
        # later writes to the descriptor, as the exit flush makes, are dropped
        os.write(fd, b"late")
    finally:
        os.close(fd)
    assert capsys.readouterr().err == "error: cannot write stdout: [Errno 32] Broken pipe\n"
    assert sink.read_bytes() == b""


def test_closed_stdout_pipe_ends_in_one_error_line(tmp_path):
    # a real pipe whose reader has gone: the write fails with EPIPE, and
    # nothing else reaches stderr before the interpreter exits
    path = write_run(tmp_path, BELL_SCENARIO)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run([sys.executable, "-m", "dotmol.cli", "--config", str(path)],
                                env=src_env(), stdout=write_end, stderr=subprocess.PIPE,
                                check=False)
    finally:
        os.close(write_end)
    assert result.returncode == EXIT_USAGE
    assert result.stderr == b"error: cannot write stdout: [Errno 32] Broken pipe\n"


def test_cli_import_pulls_in_no_scipy():
    # numpy is the only runtime dependency; scipy serves the tests alone
    probe = "import dotmol.cli, sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    result = subprocess.run([sys.executable, "-c", probe], env=src_env(),
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"


@pytest.mark.parametrize("target", ["directory", "missing/out.json"])
def test_unwritable_out_exits_one_without_traceback(tmp_path, capsys, target):
    (tmp_path / "directory").mkdir()
    for scenario in ({"kind": "sweep", "parameter": "epsilon", "observable": "h_cc",
                      "start": -10.0, "stop": 10.0, "points": 3},
                     {"kind": "sweep", "parameter": "epsilon", "observable": "h_cc",
                      "start": -9000.0, "stop": 9000.0, "points": 3}):
        path = write_run(tmp_path, scenario)
        code = main(["--config", str(path), "--out", str(tmp_path / target)])
        assert code == EXIT_USAGE  # the second case would otherwise exit 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_trials_and_points_have_an_upper_bound(tmp_path):
    # load_config only validates, so neither limit allocates a row
    bell = {"kind": "bell", "input": "phi_plus"}
    sweep = {"kind": "sweep", "parameter": "epsilon", "observable": "h_cc",
             "start": -10.0, "stop": 10.0}
    for scenario, key, limit in ((bell, "trials", BELL_TRIAL_LIMIT),
                                 (sweep, "points", SWEEP_POINT_LIMIT)):
        assert load_config(write_run(tmp_path, dict(scenario, **{key: limit})))
        path = write_run(tmp_path, dict(scenario, **{key: limit + 1}))
        with pytest.raises(ConfigError, match=key):
            load_config(path)
        assert main(["--config", str(path)]) == EXIT_USAGE


def test_topology_size_is_bounded_before_adjacency(tmp_path, capsys, monkeypatch):
    def refuse(self):
        raise AssertionError("adjacency() ran on an oversized topology")

    monkeypatch.setattr(Topology, "adjacency", refuse)
    for topology in ({"kind": "grid", "rows": 100_000, "cols": 100_000},
                     {"kind": "line", "n": 4097}):
        path = write_run(tmp_path, {"kind": "compile", "circuit": "c.txt"},
                         circuit="CZ 0 1\n", geometry={"topology": topology})
        assert main(["--config", str(path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "at most 4096" in err
    assert Topology.grid(64, 64).size == 4096
    with pytest.raises(ValueError, match="4160 molecules"):
        Topology.grid(64, 65)
