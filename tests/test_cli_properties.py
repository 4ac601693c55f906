"""Property tests: any config or circuit a user can write ends in exit 0-3.

Every drawn input runs through cli.main. It must return one of the four
exit codes, and stderr must never carry a Python traceback; a usage error
(exit 1) is exactly one "error: " line. Register sizes, trial counts and
sweep points stay small, so no example asks for a large allocation.

The CLI's indented-JSON writer must write every drawn payload exactly as
json.dumps(payload, sort_keys=True, indent=2) does, and a register state
exactly as json.dumps writes its register.state_json pairs.
"""
import contextlib
import copy
import io
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dotmol import EncodedRegisterState, state_json
from dotmol.cli import _indented_json, main

PROPERTY_SETTINGS = settings(
    max_examples=150, derandomize=True, database=None, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture])

# a fixed alphabet (letters, digits, blanks, line breaks, non-ASCII) keeps
# hypothesis from building its full unicode table on every run
CHARS = "HZXCNOTMEASURBLFhx0129 .-_#\t\n\r\x00\xe9\u2028\U0001f600"
# values for sizes and counts: never large enough to allocate much
SMALL = st.one_of(st.integers(-2, 4), st.floats(-3.0, 4.0),
                  st.sampled_from([math.nan, math.inf, -math.inf, "2", "x", None, True, [2]]))


CIRCUIT_TEXT = "H 0\nCNOT 0 1\nMEASURE 1\n"
LINE2 = {"topology": {"kind": "line", "n": 2}}
GRID = {"topology": {"kind": "grid", "rows": 2, "cols": 2}}
VALID_CONFIGS = [
    {"geometry": LINE2, "scenario": {"kind": "bell", "input": "psi_plus", "trials": 2}},
    {"geometry": GRID, "scenario": {"kind": "simulate", "circuit": "c.txt"}, "seed": 3},
    {"geometry": GRID, "scenario": {"kind": "compile", "circuit": "c.txt"}, "echo": True},
    {"geometry": LINE2, "format": "csv",
     "scenario": {"kind": "sweep", "parameter": "epsilon", "observable": "h_cc",
                  "start": -100.0, "stop": 100.0, "points": 3}},
    {"geometry": LINE2, "params": {"tunnel_coupling": 5.0},
     "scenario": {"kind": "sweep", "parameter": "inter_molecule_distance",
                  "observable": "nnn_ratio", "start": 200.0, "stop": 400.0,
                  "points": 2}},
]
# key paths into a config, by section; sizes and counts only get small values
SIZE_KEYS = {"n", "rows", "cols", "trials", "points"}
KEY_PATHS = {
    "geometry": [
        ("geometry",), ("geometry", "topology"), ("geometry", "topology", "kind"),
        ("geometry", "topology", "n"), ("geometry", "topology", "rows"),
        ("geometry", "topology", "cols"), ("geometry", "topology", "diagonal"),
        ("geometry", "layout"), ("geometry", "intra_dot_distance"),
        ("geometry", "inter_molecule_distance"),
        ("geometry", "relative_permittivity"), ("geometry", "spacing")],
    "params": [
        ("params",), ("params", "tunnel_coupling"), ("params", "charging_energy"),
        ("params", "g_factor"), ("params", "nuclear_field"),
        ("params", "coherence_time"), ("params", "mass")],
    "scenario": [
        ("scenario",), ("scenario", "kind"), ("scenario", "circuit"),
        ("scenario", "input"), ("scenario", "trials"), ("scenario", "parameter"),
        ("scenario", "observable"), ("scenario", "start"), ("scenario", "stop"),
        ("scenario", "points")],
    "run": [(), ("seed",), ("format",), ("echo",), ("workers",), ("safety_factor",)],
}
DELETE = object()
# one of each JSON type, words the config uses elsewhere, non-finite floats
ODD_VALUES = st.sampled_from([
    None, True, False, 0, -1, "", "x", "false", "nan", "1e400", "line", "grid",
    "bell", "sweep", "epsilon", "h_cc", "phi_minus", "c.txt", [], [2], {},
    {"\n": 1}, math.nan, math.inf, -math.inf]).map(copy.deepcopy)
VALUE = st.one_of(ODD_VALUES, st.floats(-1e4, 1e4), st.floats(), st.text(CHARS, max_size=6))


def mutation(paths):
    """One (key path, value) edit; DELETE removes the key."""
    return st.sampled_from(paths).flatmap(lambda path: st.tuples(
        st.just(path),
        st.one_of(SMALL if path and path[-1] in SIZE_KEYS else VALUE, st.just(DELETE))))


def mutate(config, mutations):
    """config with each (path, value) set, or the key deleted, in turn. An
    edit below a value that is no longer an object does nothing."""
    config = copy.deepcopy(config)
    for path, value in mutations:
        if not path:
            config = None if value is DELETE else value
            continue
        node = config
        for key in path[:-1]:
            node = node.setdefault(key, {}) if isinstance(node, dict) else None
        if isinstance(node, dict):
            if value is DELETE:
                node.pop(path[-1], None)
            else:
                node[path[-1]] = value
    return config


def configs(section):
    """A valid config with one or two keys of one section broken."""
    return st.builds(mutate, st.sampled_from(VALID_CONFIGS),
                     st.lists(mutation(KEY_PATHS[section]), min_size=1, max_size=2))


TOKENS = st.sampled_from(["0", "1", "2", "3", "-1", "99", "x", "0.5", "-2.1",
                          "nan", "inf", "1e400", "1_0", "#"])
LINE = st.builds(
    lambda op, args: " ".join([op, *args]),
    st.sampled_from(["H", "Z", "XZ", "CNOT", "CZ", "MEASURE", "BELL", "cz", "FOO", ""]),
    st.lists(TOKENS, max_size=4))
CIRCUIT = st.one_of(
    st.lists(LINE, max_size=8).map("\n".join),
    st.text(CHARS, max_size=40))
CIRCUIT_SCENARIO = st.fixed_dictionaries({
    "geometry": st.sampled_from([{"topology": {"kind": "line", "n": 3}},
                                 {"topology": {"kind": "grid", "rows": 2, "cols": 2}}]),
    "scenario": st.fixed_dictionaries({
        "kind": st.sampled_from(["simulate", "compile"]), "circuit": st.just("c.txt")}),
    "echo": st.booleans(),
    "seed": st.integers(0, 2 ** 40)})


def run_main(tmp_path, config, circuit):
    """Write the inputs under tmp_path and run the CLI; (exit code, stderr)."""
    (tmp_path / "c.txt").write_text(circuit, encoding="utf-8")
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["--config", str(path), "--out", str(tmp_path / "out")])
    return code, err.getvalue()


def check_outcome(code, err):
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    if code == 1:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err


@pytest.mark.parametrize("section", sorted(KEY_PATHS))
@PROPERTY_SETTINGS
@given(data=st.data())
def test_any_config_ends_in_an_exit_code(tmp_path, section, data):
    config = data.draw(configs(section), label="config")
    check_outcome(*run_main(tmp_path, config, CIRCUIT_TEXT))


@PROPERTY_SETTINGS
@given(config=CIRCUIT_SCENARIO, circuit=CIRCUIT)
def test_any_circuit_ends_in_an_exit_code(tmp_path, config, circuit):
    check_outcome(*run_main(tmp_path, config, circuit))


# every character class json escapes: quote, backslash, control, non-ASCII
# inside and outside the basic plane
JSON_TEXT = st.text("az/ \"\\\x00\x1f\x7f\n\t\xe9\u2028\U0001f600", max_size=5)
JSON_SCALAR = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.floats().map(np.float64),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e16, 1e-5]), JSON_TEXT)
JSON_PAYLOAD = st.recursive(JSON_SCALAR, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
    st.dictionaries(JSON_TEXT, inner, max_size=4)), max_leaves=40)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(payload=JSON_PAYLOAD)
def test_indented_json_matches_json_dumps(payload):
    expected = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    assert _indented_json(payload) == expected.encode()


@pytest.mark.parametrize("payload", [
    {1, 2}, b"x", 1j, np.int64(3), [np.zeros(2)], {"a": [object()]}, {(1,): 2}],
    ids=["set", "bytes", "complex", "np_int64", "ndarray", "object", "tuple_key"])
def test_indented_json_refuses_what_json_refuses(payload):
    with pytest.raises(TypeError):
        json.dumps(payload, sort_keys=True, indent=2)
    with pytest.raises(TypeError):
        _indented_json(payload)


@pytest.mark.parametrize("payload", [{1: 2}, {"a": {None: 1}}, [{2.5: 1}]])
def test_indented_json_refuses_keys_other_than_str(payload):
    # json would write these keys as strings; no payload of the CLI has one
    with pytest.raises(TypeError, match="keys must be str"):
        _indented_json(payload)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_state_writer_matches_state_json(n):
    rng = np.random.default_rng(600 + n)
    size = 2 ** n
    amps = rng.normal(size=size) + 1j * rng.normal(size=size)
    # signed zeros, a tiny amplitude and exact zeros, all kept by the scaling
    amps[0] = complex(-0.0, 0.5)
    amps[-1] = complex(1e-17, -0.0)
    if n > 1:
        amps[1] = 0.0
        amps[2] = complex(-0.0, -0.0)
    amps /= np.linalg.norm(amps)
    strided = np.empty(2 * size, dtype=complex)
    strided[::2] = amps
    for state in (EncodedRegisterState(amps, ("11",) * n),
                  EncodedRegisterState(strided[::2], ("02",) * n)):
        expected = json.dumps(state_json(state), indent=2) + "\n"
        assert _indented_json(state) == expected.encode()
        nested = json.dumps({"final_state": state_json(state), "n": n},
                            sort_keys=True, indent=2) + "\n"
        assert _indented_json({"n": n, "final_state": state}) == nested.encode()
