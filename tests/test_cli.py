"""CLI: config loading, circuit parsing, scenarios, exit codes, determinism."""
import hashlib
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from bell_reference import reference_bell
from schedule_reference import reference_from_json

import dotmol
from dotmol import BELL_LABELS, Topology, bell_state, substream, validate_program
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


@pytest.mark.parametrize("config", [
    dict(BASE, scenario=dict(BELL_SCENARIO, trials="abc")),
    dict(BASE, scenario=BELL_SCENARIO, seed="x"),
    dict(BASE, scenario=BELL_SCENARIO, workers="two"),
    dict(BASE, scenario=BELL_SCENARIO, safety_factor=None),
    [dict(BASE, scenario=BELL_SCENARIO)],
    dict(BASE, scenario={"kind": "compile", "circuit": 5}),
    dict(BASE, scenario={"kind": "simulate", "circuit": ["c.txt"]}),
    dict(BASE, scenario=BELL_SCENARIO, echo="false"),
    dict(BASE, scenario=BELL_SCENARIO, geometry={"topology": {
        "kind": "grid", "rows": 1, "cols": 2, "diagonal": "false"}}),
    dict(BASE, scenario=BELL_SCENARIO, safety_factor="nan"),
    dict(BASE, scenario=BELL_SCENARIO, geometry={"topology": {"kind": "line", "n": 1e400}}),
    dict(BASE, scenario=BELL_SCENARIO, geometry={"topology": {"kind": "grid", "cols": 2}}),
    dict(BASE, scenario=BELL_SCENARIO, params={"g_factor": "x"}),
    dict(BASE, scenario=BELL_SCENARIO, params={"coherence_time": math.nan}),
    dict(BASE, scenario=BELL_SCENARIO, geometry={"relative_permittivity": math.nan}),
    dict(BASE, scenario={"kind": "sweep", "parameter": "epsilon", "observable": ["h_cc"],
                         "start": 0.0, "stop": 1.0, "points": 2}),
    dict(BASE, scenario=BELL_SCENARIO, params={"tunnel\ncoupling": 1.0}),
], ids=["trials", "seed", "workers", "safety_factor", "top_level_array",
        "circuit_number", "circuit_list", "echo_string", "diagonal_string",
        "safety_factor_nan", "n_infinite", "grid_without_rows", "g_factor_string",
        "coherence_time_nan", "permittivity_nan", "observable_list",
        "params_key_newline"])
def test_malformed_scalars_exit_one_without_traceback(tmp_path, capsys, config):
    path = tmp_path / "r.json"
    path.write_text(json.dumps(config))
    assert main(["--config", str(path), "--out", str(tmp_path / "o.json")]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("blob", [b'{"seed": "\xff"}', b"[" * 100_000],
                         ids=["not_utf8", "nested_too_deep"])
def test_unreadable_config_exits_one_without_traceback(tmp_path, capsys, blob):
    path = tmp_path / "r.json"
    path.write_bytes(blob)
    assert main(["--config", str(path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


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
    path = write_run(tmp_path, scenario, workers=1)
    code, blob = run_cli(path, tmp_path / "a.json")
    assert code == EXIT_OK
    rows = bell_rows(blob)
    assert len(rows) == 40  # one JSON line per trial
    assert all(r["classification"] == "psi_minus" for r in rows)
    assert all(r["round1"] == "I_mid" and r["round2"] == "I_mid" for r in rows)

    # workers > 1 must not change a single byte
    path4 = write_run(tmp_path, scenario, name="run4.json", workers=4)
    _, blob4 = run_cli(path4, tmp_path / "b.json")
    assert blob4 == blob


def test_bell_adding_trials_keeps_earlier_lines(tmp_path):
    blobs = {}
    for trials in (5, 8):
        path = write_run(tmp_path, {"kind": "bell", "input": "phi_plus",
                                    "trials": trials}, name=f"r{trials}.json")
        _, blobs[trials] = run_cli(path, tmp_path / f"o{trials}.json")
    assert blobs[8].decode().splitlines()[:5] == blobs[5].decode().splitlines()


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
        rng = substream(11, "bell", label, row["trial"])
        expected = reference_bell(bell_state(label), 0, 1, cfg.geometry,
                                  cfg.params, rng)[:4]
        assert (row["round1"], row["round2"], row["classification"],
                row["phi"]) == expected


def json_run(tmp_path, case, seed):
    """Config path of one indented-JSON case; the seed draws its inputs."""
    rnd = random.Random(seed)
    if case in ("compile", "simulate"):
        topology = Topology.grid(2, 3) if case == "compile" else Topology.grid(2, 2)
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
        return write_run(tmp_path, {"kind": case, "circuit": "c.txt"},
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
JSON_GOLDEN = {
    ("compile", 7): (0, "c7ad725eb714526150b4249cf621fb0ace0708405fa0aa898ef8cef92f53720d"),
    ("compile", 1201): (0, "497751752a57dd68cb3caa9c48e6d81a078f6b776338af1eaf5f4f5d07a8a842"),
    ("compile_budget", 7): (3, "f88a7e925e7718ab8bccebb77ebbcec3dbba39fd19c84a558925c9767cea7507"),
    ("compile_budget", 1201): (3, "d24578ab4acfbf6db3c2c0e47af259ab0a65513b96517397589e811b5df5fb7e"),
    ("simulate", 7): (0, "fe4655036e8799ea52fcbb46d04968584e599566e668b4e1bea5534d4a129a4a"),
    ("simulate", 1201): (0, "973f34b6e5bd806fac2bddc7e26613f9c27bc6bfc796d46fbbfdfbf293460fd7"),
    ("sweep_epsilon", 7): (0, "bab91f7c48731aab141969b59e1f3b0c29b62951fb10ec63d3864d68feb978ec"),
    ("sweep_epsilon", 1201): (0, "2fc385fb3b47ff05b83dbe29051493ffb34e5b8ab683f2bc7c17b4a6e7300928"),
    ("sweep_distance", 7): (0, "8efdfa3a0aef3f9c192e8328e5438405617729ca191a817526a78b877e03ebe4"),
    ("sweep_distance", 1201): (0, "e13eb70ba0f6176ec5444cd2b61712ca1ffa7ec5f5fbba09f81815432ebc03c1"),
    ("error", 7): (2, "e19e3029c99b3bf6b5d32fd525809e588afe494c067efdd9fd50973759dae493"),
    ("error", 1201): (2, "8e9da87d60e8e23aec9bca766666c236b511330b68a52fa9a5c8f858ade7487a"),
}


@pytest.mark.parametrize("case,seed", sorted(JSON_GOLDEN))
def test_json_output_bytes_are_pinned(tmp_path, case, seed):
    code, blob = run_cli(json_run(tmp_path, case, seed), tmp_path / "out.json")
    assert (code, hashlib.sha256(blob).hexdigest()) == JSON_GOLDEN[case, seed]


# sha256 of the simulate cases above written as CSV, from before the CSV
# branch read the state object instead of its state_json pairs
CSV_GOLDEN = {
    7: "07e7051753c759afd42c6824f7cde3e3777f138d4ccf5553047c5ba8a8fd741b",
    1201: "f54b1044cec9d920f2ee98df0812ff95d28772131b828dc755c9b5869f53e32d",
}


@pytest.mark.parametrize("seed", sorted(CSV_GOLDEN))
def test_simulate_csv_bytes_are_pinned(tmp_path, seed):
    code, blob = run_cli(json_run(tmp_path, "simulate", seed), tmp_path / "out.csv",
                         "--format", "csv")
    assert (code, hashlib.sha256(blob).hexdigest()) == (EXIT_OK, CSV_GOLDEN[seed])


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


def test_stdout_when_no_out_flag(tmp_path, capsysbinary):
    path = write_run(tmp_path, {"kind": "sweep", "parameter": "epsilon",
                                "observable": "sin_sq_theta", "start": -10.0,
                                "stop": 10.0, "points": 2})
    assert main(["--config", str(path)]) == EXIT_OK
    captured = capsysbinary.readouterr()
    assert json.loads(captured.out)["scenario"] == "sweep"


def test_cli_import_pulls_in_no_scipy():
    # numpy is the only runtime dependency; scipy serves the tests alone
    src = str(Path(dotmol.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = "import dotmol.cli, sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    result = subprocess.run([sys.executable, "-c", probe], env=env,
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
