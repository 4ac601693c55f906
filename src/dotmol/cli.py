"""Command-line runner.

Reads a JSON config describing geometry, molecule parameters and one
scenario (simulate | compile | bell | sweep), executes it, and writes JSON
or CSV. Identical (config, seed) pairs produce byte-identical output.
Exit codes: 0 ok, 1 usage/config error, 2 physics precondition
violation, 3 completed with budget warnings.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass, fields, replace
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .electrostatics import (LayoutGeometry, Topology, background_interaction,
                             h_cc, nnn_coupling_ratio, pair_coupling)
from .measurement import BELL_LABELS, bell_branches, bell_state
from .physics import MoleculeParams, adiabatic_angle, charge_branch_energies, sin_sq_mixing
from .register import EncodedRegisterState, check_register_size
from .scheduler import (Action, Gate, ScheduleProgram, ScheduleStep,
                        compile_circuit, init_schedule, simulate_program,
                        time_budget, validate_program)
from .streams import tokens_and_uniforms

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PHYSICS = 2
EXIT_BUDGET_WARNINGS = 3

# Bell trials and sweep points are held in memory until rendered. Peak RSS
# grows by ~429 bytes per Bell trial (JSON or CSV; the JSON lines are
# rendered _BELL_SLICE trials at a time) and ~490 bytes per sweep point
# (JSON; CSV ~193) over a ~36 MiB interpreter, measured on 10^6 trials and
# 10^5 and 2 * 10^5 points: 10^6 rows peak near 0.43 GiB (Bell) and 0.50 GiB
# (sweep), under a 1 GiB budget.
BELL_TRIAL_LIMIT = 1_000_000
SWEEP_POINT_LIMIT = 1_000_000
_BELL_SLICE = 65_536
_STATE_SLICE = 1_024


class ConfigError(Exception):
    """Bad config file, bad flags, or unparseable circuit text."""


@dataclass(frozen=True)
class RunConfig:
    geometry: LayoutGeometry
    params: MoleculeParams
    scenario: dict
    seed: int = 0
    out_format: str = "json"
    echo: bool = False


# The config schema: each section maps its keys to (check, default). A check
# is bool, int, float (finite), str, a tuple of the strings allowed, a range
# of the integers allowed, or the table of a nested section; a section's
# "kind" maps each kind to the further keys it takes. Default ... marks a
# required key, None a key whose default is the library's. params and
# geometry take the fields of MoleculeParams and LayoutGeometry.
_SCHEMA = {
    "geometry": ({
        **{f.name: (float, None) for f in fields(LayoutGeometry)},
        "layout": (str, None),
        "topology": ({"kind": ({
            "line": {"n": (int, 2)},
            "grid": {"rows": (int, ...), "cols": (int, ...), "diagonal": (bool, None)},
        }, "line")}, None),
    }, None),
    "params": ({f.name: (float, None) for f in fields(MoleculeParams)
                if f.name != "safety_factor"}, None),
    "scenario": ({"kind": ({
        "simulate": {"circuit": (str, ...)},
        "compile": {"circuit": (str, ...)},
        "bell": {"input": (BELL_LABELS, ...),
                 "trials": (range(1, BELL_TRIAL_LIMIT + 1), ...)},
        "sweep": {"parameter": (str, ...), "observable": (str, ...),
                  "start": (float, ...), "stop": (float, ...),
                  "points": (range(2, SWEEP_POINT_LIMIT + 1), ...)},
    }, ...)}, ...),
    # the stream keeps 63 bits of the root seed; wider seeds would collide
    "seed": (range(2 ** 63), None),
    "format": (("json", "csv"), None),
    "echo": (bool, None),
    # the sweep margin is set at the top level and kept in MoleculeParams
    "safety_factor": (float, None),
}


def _section(values, name: str, keys: dict) -> dict:
    """values, a section named name, checked against its table keys: the
    given keys' values, converted, plus the table's defaults. A key the
    table does not hold is refused by name."""
    if not isinstance(values, dict):
        raise ConfigError(f"{name} must be a JSON object, not {type(values).__name__}")
    checked, where = {}, ""
    if "kind" in keys:
        kinds, default = keys["kind"]
        kind = values.get("kind", default)
        if kind is ...:
            raise ConfigError(f"{name} key 'kind' is required")
        if not isinstance(kind, str) or kind not in kinds:
            raise ConfigError(f"unknown {name} kind {kind!r}")
        checked["kind"], keys, where = kind, kinds[kind], f" for kind {kind!r}"
    for key in values:
        if key not in keys and key not in checked:
            if key in _SCHEMA:
                raise ConfigError(f"{key} is a top-level key, not a {name} key")
            raise ConfigError(f"{name} key {key!r} is not known{where}")
    for key, (check, default) in keys.items():
        if key in values:
            checked[key] = _check_value(check, values[key], name, key)
        elif default is ...:
            raise ConfigError(f"{name} key {key!r} is required{where}")
        elif default is not None:
            checked[key] = default
    return checked


def _check_value(check, value, section: str, key: str):
    """value as check allows it; anything else is a ConfigError naming the
    key. A number is never a JSON boolean, and an integer key refuses what
    int() would change: 2.5, or the string "3"."""
    if isinstance(check, dict):
        return _section(value, key, check)
    if check is bool or check is str:
        if isinstance(value, check):
            return value
        expected = "true or false" if check is bool else "a string"
    elif isinstance(check, tuple):
        if isinstance(value, str) and value in check:
            return value
        expected = "one of " + ", ".join(map(repr, check))
    else:
        number = None
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            try:
                number = float(value) if check is float else int(value)
            except (ValueError, OverflowError):
                pass
        if check is float:
            if number is not None and math.isfinite(number):
                return number
            expected = "a finite number"
        else:
            if number is not None and number == value and (check is int or number in check):
                return number
            expected = ("an integer" if check is int else
                        f"an integer from {check.start} to {check.stop - 1}")
    raise ConfigError(f"{section} key {key!r} must be {expected}, not {value!r}")


def _circuit_path(config_dir: Path, circuit: str) -> Path:
    """The circuit file: in the config's directory if it is there, else
    relative to the working directory."""
    path = config_dir / circuit
    return path if path.is_file() else Path(circuit)


def load_config(path: str | Path, overrides: dict | None = None) -> RunConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file {path} does not exist")
    try:
        data = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # ValueError: bad syntax, bytes that are not UTF-8, or an integer
        # too long for int()
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    data = _section(data, "config", _SCHEMA)
    geometry, params = data.get("geometry", {}), data.get("params", {})
    if "safety_factor" in data:
        params["safety_factor"] = data["safety_factor"]
    try:
        if "topology" in geometry:
            geometry["topology"] = Topology(**geometry["topology"])
        geometry, params = LayoutGeometry(**geometry), MoleculeParams(**params)
    except ValueError as exc:
        raise ConfigError(f"bad geometry or params: {exc}") from exc
    scenario = data["scenario"]
    if "circuit" in scenario and not _circuit_path(path.parent, scenario["circuit"]).is_file():
        raise ConfigError(f"circuit file {scenario['circuit']!r} does not exist")
    given = {"seed": data.get("seed"), "out_format": data.get("format"),
             "echo": data.get("echo")}
    seed = (overrides or {}).get("seed")
    if seed is not None:  # an override skips the schema
        _check_value(_SCHEMA["seed"][0], seed, "override", "seed")
    settings = {key: value for source in (given, overrides or {})
                for key, value in source.items() if value is not None}
    if scenario["kind"] == "compile" and settings.get("out_format") == "csv":
        raise ConfigError("scenario 'compile' has no CSV rendering; use json")
    return RunConfig(geometry=geometry, params=params, scenario=scenario, **settings)


def parse_circuit(text: str) -> list[Gate]:
    """Parse circuit text: one gate per line, '#' comments.

    H i | Z i phi | XZ i axis phi | CNOT i j | CZ i j | MEASURE i | BELL i j

    Each distinct line text is parsed once per call; its later copies
    append the same Gate object. The memo is keyed by text, not by Gate
    equality, under which Z 0 0.0 and Z 0 -0.0 would be one gate.
    """
    gates: list[Gate] = []
    parsed: dict[str, Gate] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        gate = parsed.get(line)
        if gate is None:
            gate = parsed[line] = _parse_line(line, lineno)
        gates.append(gate)
    return gates


def _parse_line(line: str, lineno: int) -> Gate:
    """The gate of one stripped, non-empty circuit line."""
    tokens = line.split()
    op, args = tokens[0].upper(), tokens[1:]

    def qubits(width, arity, usage):
        """The first width of exactly arity arguments, as qubit indices."""
        if len(args) != arity:
            raise ConfigError(f"line {lineno}: {op} takes {usage}")
        try:
            return tuple([int(a) for a in args[:width]])
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad index in {line!r}") from exc

    try:
        if op == "H":
            return Gate("h", qubits(1, 1, "1 argument(s)"))
        if op == "Z":
            return Gate("z", qubits(1, 2, "qubit and angle"), angle=float(args[1]))
        if op == "XZ":
            return Gate("xz", qubits(1, 3, "qubit, axis, angle"),
                        axis_angle=float(args[1]), angle=float(args[2]))
        if op in ("CNOT", "CZ", "BELL"):
            return Gate(op.lower(), qubits(2, 2, "2 argument(s)"))
        if op == "MEASURE":
            return Gate("measure", qubits(1, 1, "1 argument(s)"))
    except ValueError as exc:
        raise ConfigError(f"line {lineno}: {exc}") from exc
    raise ConfigError(f"line {lineno}: unknown gate {op!r}")


# --- scenario execution ---

def _budget_json(report) -> dict:
    return {"limit": report.limit,
            "elapsed": {str(m): t for m, t in report.elapsed.items()},
            "read_counts": {str(m): k for m, k in report.read_counts.items()},
            "violations": [{"molecule": v.molecule, "rule": v.rule,
                            "message": v.message} for v in report.violations]}


def _load_gates(config: RunConfig, config_dir: Path) -> list[Gate]:
    circuit = config.scenario["circuit"]
    try:
        text = _circuit_path(config_dir, circuit).read_text()
    except (UnicodeDecodeError, OSError) as exc:
        raise ConfigError(f"cannot read circuit file {circuit!r}: {exc}") from exc
    return parse_circuit(text)


def _run_compile(config: RunConfig, config_dir: Path) -> tuple[int, dict]:
    gates = _load_gates(config, config_dir)
    program = compile_circuit(gates, config.geometry, config.params)
    findings = validate_program(program, config.geometry.topology.adjacency())
    report = time_budget(program, config.params, echo=config.echo)
    payload = {"scenario": "compile", "schedule": program,
               "validation": [v.message for v in findings],
               "budget": _budget_json(report)}
    return (EXIT_OK if report.ok else EXIT_BUDGET_WARNINGS), payload


def _run_simulate(config: RunConfig, config_dir: Path) -> tuple[int, dict]:
    check_register_size(config.geometry.topology.size)
    gates = _load_gates(config, config_dir)
    prologue = init_schedule(config.geometry.topology, config.params)
    compiled = compile_circuit(gates, config.geometry, config.params)
    program = ScheduleProgram(prologue.steps + compiled.steps,
                              config.geometry.topology.size)
    # one uniform per read, in program order, from the run's one stream
    reads = sum(a.reads for s in program.steps for a in s.actions)
    draws = tokens_and_uniforms(config.seed, [("simulate",)], reads)[1][0].tolist()
    state, events = simulate_program(program, config.geometry, config.params,
                                     iter(draws).__next__)
    report = time_budget(program, config.params, echo=config.echo)
    payload = {"scenario": "simulate",
               "final_state": state,
               # every compiled action ends with its molecules back at idle
               "charge_flags": ["11"] * state.n,
               "events": events,
               "budget": _budget_json(report)}
    return (EXIT_OK if report.ok else EXIT_BUDGET_WARNINGS), payload


def _run_bell(config: RunConfig) -> tuple[int, dict]:
    label = config.scenario["input"]
    trials = config.scenario["trials"]
    if config.geometry.topology.size < 2:
        raise ValueError("bell scenario needs at least two molecules")
    # the protocol up to its two draws is fixed by the input; trials only
    # sample it, so a row holds its trial, its seed and its leaf's index
    branches = bell_branches(bell_state(label), 0, 1, config.geometry, config.params)
    leaf_index = {key: n for n, key in enumerate(branches.outcomes)}
    leaves = [{"input": label, "round1": o.round1, "round2": o.round2,
               "classification": o.classification, "phi": o.phi}
              for o in branches.outcomes.values()]
    stream_labels = (("bell", label, t) for t in range(trials))
    seeds, draws = tokens_and_uniforms(config.seed, stream_labels, 2)
    sampled = (branches.sample(iter(pair).__next__) for pair in zip(*draws.T.tolist()))
    outcomes = [(trial, seed, leaf_index[o.round1, o.round2])
                for trial, seed, o in zip(range(trials), seeds, sampled)]
    return EXIT_OK, {"scenario": "bell", "input": label, "trials": trials,
                     "leaves": leaves, "outcomes": outcomes}


_EPSILON_OBSERVABLES = {
    "h_cc": lambda e, cfg: h_cc(adiabatic_angle(e, cfg.params.tunnel_coupling),
                                cfg.geometry),
    "sin_sq_theta": lambda e, cfg: sin_sq_mixing(e, cfg.params.tunnel_coupling),
    "adiabatic_angle": lambda e, cfg: adiabatic_angle(e, cfg.params.tunnel_coupling),
    "branch_gap": lambda e, cfg: (lambda lo_hi: lo_hi[1] - lo_hi[0])(
        charge_branch_energies(e, cfg.params.tunnel_coupling)),
}

_DISTANCE_OBSERVABLES = {
    "coupling_max": lambda g: pair_coupling(g).coupling_max,
    "background_interaction": background_interaction,
    "nnn_ratio": nnn_coupling_ratio,
}


def _run_sweep(config: RunConfig) -> tuple[int, dict]:
    sc = config.scenario
    parameter, observable = sc["parameter"], sc["observable"]
    start, stop, points = sc["start"], sc["stop"], sc["points"]
    values = [start + (stop - start) * k / (points - 1) for k in range(points)]
    rows = []
    if parameter == "epsilon":
        fn = _EPSILON_OBSERVABLES.get(observable)
        if fn is None:
            raise ValueError(f"unknown epsilon observable {observable!r}; "
                             f"choose from {sorted(_EPSILON_OBSERVABLES)}")
        lo, hi = config.params.detuning_min, config.params.detuning_max
        if min(start, stop) < lo or max(start, stop) > hi:
            raise ValueError(f"epsilon sweep must stay within [{lo:g}, {hi:g}] ueV")
        rows = [[v, float(fn(v, config))] for v in values]
    elif parameter == "inter_molecule_distance":
        fn = _DISTANCE_OBSERVABLES.get(observable)
        if fn is None:
            raise ValueError(f"unknown distance observable {observable!r}; "
                             f"choose from {sorted(_DISTANCE_OBSERVABLES)}")
        for v in values:
            g = replace(config.geometry, inter_molecule_distance=v)
            rows.append([v, float(fn(g))])
    else:
        raise ValueError(f"unknown sweep parameter {parameter!r}")
    payload = {"scenario": "sweep", "parameter": parameter,
               "observable": observable, "rows": rows}
    return EXIT_OK, payload


# json's spellings of the floats that float.__repr__ writes as nan and inf
_JSON_SPECIAL_FLOATS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_scalar(value) -> str:
    """value as json.dumps writes it; any other type is a TypeError."""
    if isinstance(value, float):
        text = float.__repr__(value)
        return _JSON_SPECIAL_FLOATS.get(text, text)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} "
                    "is not JSON serializable")


# values _json_chunks writes as JSON arrays or objects
_JSON_COMPOUND = (dict, list, tuple, ScheduleStep, ScheduleProgram,
                  EncodedRegisterState)


def _json_chunks(value, lead: str, pad: str, write, texts: dict) -> None:
    """Write value's bytes through write as json.dumps(value, sort_keys=True,
    indent=2) writes it, nested at indent pad, with lead (the separator
    before it). Schedules are written as their schedule JSON and register
    states as [re, im] amplitude pairs, straight from the objects; a
    state's pairs are joined and encoded one slice of amplitudes at a time
    (_amplitude_slices), so its whole text is never held. Keys
    must be str; any other key or value type is a TypeError. texts is the
    render's memo of encoded action texts (_action_text)."""
    if not isinstance(value, _JSON_COMPOUND):
        write((lead + _json_scalar(value)).encode())
    elif isinstance(value, dict):
        members = []
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            members.append((key, value[key]))
        _members_chunks(members, lead, pad, write, texts)
    elif isinstance(value, (list, tuple)):
        if not value:
            write((lead + "[]").encode())
            return
        inner = pad + "  "
        lead += "[\n" + inner
        for item in value:
            _json_chunks(item, lead, inner, write, texts)
            lead = ",\n" + inner
        write(("\n" + pad + "]").encode())
    elif isinstance(value, ScheduleStep):
        # {"actions": [...], "duration_ns": d}, each action text written on
        # its own, so repeats write the memo's bytes
        inner = pad + "  "
        if value.actions:
            apad = inner + "  "
            lead = (lead + "{\n" + inner + '"actions": [\n' + apad).encode()
            sep = (",\n" + apad).encode()
            for a in value.actions:
                write(lead)
                write(_action_text(a, apad, texts))
                lead = sep
            lead = "\n" + inner + "],\n" + inner
        else:
            lead += "{\n" + inner + '"actions": [],\n' + inner
        write((lead + '"duration_ns": ' + _json_scalar(value.duration)
               + "\n" + pad + "}").encode())
    elif isinstance(value, ScheduleProgram):
        _members_chunks((("molecule_count", value.molecule_count),
                         ("steps", value.steps)), lead, pad, write, texts)
    else:
        # [re, im] pairs, basis index in row-major molecule order
        pair_pad = pad + "  "
        part_pad = pair_pad + "  "
        sep = f"\n{pair_pad}],\n{pair_pad}[\n{part_pad}"
        write(f"{lead}[\n{pair_pad}[\n{part_pad}".encode())
        for start, rows in _amplitude_slices(value.amplitudes, ",\n" + part_pad,
                                             _JSON_SPECIAL_FLOATS):
            write(((sep if start else "") + sep.join(rows)).encode())
        write(f"\n{pair_pad}]\n{pad}]".encode())


def _members_chunks(members, lead: str, pad: str, write, texts: dict) -> None:
    """A JSON object of (key, value) members given in sorted key order."""
    if not members:
        write((lead + "{}").encode())
        return
    inner = pad + "  "
    lead += "{\n" + inner
    for key, value in members:
        _json_chunks(value, lead + encode_basestring_ascii(key) + ": ", inner, write, texts)
        lead = ",\n" + inner
    write(("\n" + pad + "}").encode())


def _action_text(a: Action, pad: str, texts: dict) -> bytes:
    """One action's JSON at indent pad, encoded. hold_ns, ramp_ns and
    read_duration_ns appear only when nonzero, phase when set and
    rotation when present.

    A compiled program repeats the same angle-free Action objects, so
    texts, which lives for one render, keeps their encoded texts by
    (id(a), pad), and repeats write the same bytes; a Z or XZ rotation is
    a fresh action per gate (scheduler._lower), so its text is not kept.
    The payload holds every action until the render ends, so no id is
    reused. Keys are identities, not Action equality, under which an
    action with a -0.0 field would be written as its 0.0 twin."""
    key = (id(a), pad)
    text = texts.get(key)
    if text is not None:
        return text
    values = [a.duration]
    if a.hold:
        values.append(a.hold)
    values.append(a.kind)
    values += a.molecules
    if a.phase is not None:
        values.append(a.phase)
    if a.ramp:
        values.append(a.ramp)
    if a.read_duration:
        values.append(a.read_duration)
    rot = a.rotation
    if rot is not None:
        values += (rot.angle, rot.axis_angle, rot.duration, rot.kind)
    template = _action_template(pad, len(a.molecules), bool(a.hold),
                                a.phase is not None, bool(a.ramp),
                                bool(a.read_duration), rot is not None)
    # not tuple(map(...)): that takes a 10-slot tuple and shrinks it, so
    # thousands of freed tuples pile up on a free list inside the render's
    # memory and keep it from going back to the OS
    text = (template % tuple([_json_scalar(v) for v in values])).encode()
    if rot is None or rot.kind == "hadamard":
        texts[key] = text
    return text


@lru_cache(maxsize=256)
def _action_template(pad: str, width: int, hold: bool, phase: bool,
                     ramp: bool, read: bool, rotation: bool) -> str:
    """%-template of one action key set, keys in sorted order and a %s for
    each scalar."""
    inner = pad + "  "
    molecules = "[]" if not width else (
        "[\n" + ",\n".join([inner + "  %s"] * width) + "\n" + inner + "]")
    fields = ['"duration_ns": %s', '"hold_ns": %s' if hold else None,
              '"kind": %s', '"molecules": ' + molecules,
              '"phase": %s' if phase else None, '"ramp_ns": %s' if ramp else None,
              '"read_duration_ns": %s' if read else None]
    if rotation:
        fields.append('"rotation": {\n' + ",\n".join(
            f'{inner}  "{key}": %s'
            for key in ("angle", "axis_angle", "duration_ns", "kind"))
            + "\n" + inner + "}")
    return "{\n" + ",\n".join(inner + f for f in fields if f) + "\n" + pad + "}"


def _amplitude_slices(amps: np.ndarray, sep: str, special: dict | None = None):
    """Yield (start, rows) for each slice of _STATE_SLICE amplitudes, rows
    holding one "re<sep>im" text per amplitude from index start on, each
    part as float.__repr__ writes it, mapped through special if given.
    Only amplitudes with a part other than +0.0 are formatted; every other
    shares one "0.0<sep>0.0" text, and a dense slice overwrites all of
    them. The test is on the parts' bits, so a -0.0 part is formatted and
    keeps its sign. Only one slice's texts are held at a time."""
    zero = f"0.0{sep}0.0"
    for start in range(0, len(amps), _STATE_SLICE):
        flat = np.ascontiguousarray(amps[start:start + _STATE_SLICE]).view(float).reshape(-1, 2)
        bits = flat.view(np.uint64)
        nonzero = (bits[:, 0] | bits[:, 1]) != 0
        texts = list(map(float.__repr__, flat[nonzero].ravel().tolist()))
        if special:
            texts = list(map(special.get, texts, texts))
        halves = iter(texts)
        rows = [zero] * len(flat)
        for index, text in zip(np.flatnonzero(nonzero).tolist(),
                               map(sep.join, zip(halves, halves))):
            rows[index] = text
        yield start, rows


def _state_csv(amps: np.ndarray, write) -> None:
    """Write one "index,re,im" row per amplitude through write, as bytes,
    a slice at a time, as csv.writer writes [index, repr(re), repr(im)]:
    no float repr needs quoting or holds a "%", so one %-format fills in
    a slice's indices, counted from its start."""
    for start, rows in _amplitude_slices(amps, ","):
        write((("%d," + "\n%d,".join(rows) + "\n")
               % tuple(range(start, start + len(rows)))).encode())


def _indented_json(payload) -> bytes:
    """json.dumps(payload, sort_keys=True, indent=2) plus a newline, as bytes,
    without the pure-Python encoder that indent switches json to. The
    bytes are written once, into one buffer; no str of the whole document
    is built."""
    buf = io.BytesIO()
    _json_chunks(payload, "", "", buf.write, {})
    buf.write(b"\n")
    return buf.getvalue()


def _render(payload: dict, out_format: str) -> bytes:
    if out_format == "json":
        if payload.get("scenario") == "bell":
            # one self-contained JSON record per trial: appending trials
            # never rewrites earlier lines; seed and trial sort last. Lines
            # are joined and encoded a slice of trials at a time
            heads = [json.dumps(leaf, sort_keys=True)[:-1] + ', "seed": '
                     for leaf in payload["leaves"]]
            outcomes, buf = payload["outcomes"], io.BytesIO()
            for start in range(0, len(outcomes), _BELL_SLICE):
                rows = outcomes[start:start + _BELL_SLICE]
                buf.write("".join([f'{heads[leaf]}{seed}, "trial": {trial}}}\n'
                                   for trial, seed, leaf in rows]).encode())
            return buf.getvalue()
        return _indented_json(payload)
    kind = payload.get("scenario")
    if kind == "simulate":
        buf = io.BytesIO()
        buf.write(b"index,re,im\n")
        _state_csv(payload["final_state"].amplitudes, buf.write)
        return buf.getvalue()
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if kind == "sweep":
        writer.writerow([payload["parameter"], payload["observable"]])
        writer.writerows(payload["rows"])
    else:  # bell; load_config refuses CSV for compile
        writer.writerow(["trial", "seed", "input", "round1", "round2",
                         "classification", "phi"])
        tails = [[row["input"], row["round1"], row["round2"] or "",
                  row["classification"], repr(row["phi"])] for row in payload["leaves"]]
        writer.writerows([trial, seed, *tails[leaf]] for trial, seed, leaf in payload["outcomes"])
    return buf.getvalue().encode()


def run(config: RunConfig, config_dir: Path) -> tuple[int, bytes]:
    """Execute one scenario; returns (exit_code, output_bytes)."""
    kind = config.scenario["kind"]
    if kind == "compile":
        code, payload = _run_compile(config, config_dir)
    elif kind == "simulate":
        code, payload = _run_simulate(config, config_dir)
    elif kind == "bell":
        code, payload = _run_bell(config)
    else:
        code, payload = _run_sweep(config)
    return code, _render(payload, config.out_format)


def _usage_error(exc: ConfigError) -> int:
    """Report a usage error on one stderr line, even if it quotes user text."""
    print("error:", " ".join(str(exc).splitlines()), file=sys.stderr)
    return EXIT_USAGE


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dotmol",
        description="Simulate and schedule double-dot molecule qubit registers.")
    parser.add_argument("--config", required=True, help="JSON run configuration")
    parser.add_argument("--seed", type=int, default=None, help="override root seed")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--format", choices=_SCHEMA["format"][0], default=None,
                        help="override output format")
    parser.add_argument("--echo", action="store_true", default=None,
                        help="budget against the echo-extended coherence window")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK

    error = None
    with warnings.catch_warnings(record=True) as caught:
        # every warning of the load and the run, -W error included, is
        # reported below as one line; "default" keeps one per location
        warnings.simplefilter("default")
        try:
            config = load_config(args.config, overrides={
                "seed": args.seed, "out_format": args.format, "echo": args.echo})
            code, output = run(config, Path(args.config).parent)
        except ConfigError as exc:
            error = exc
        except (ValueError, ArithmeticError) as exc:
            record = {"error": {"type": type(exc).__name__, "message": str(exc)}}
            code = EXIT_PHYSICS
            output = _indented_json(record)
    for message in dict.fromkeys(str(w.message) for w in caught):
        print("warning:", " ".join(message.splitlines()), file=sys.stderr)
    if error is not None:
        return _usage_error(error)

    if not args.out:
        try:
            sys.stdout.buffer.write(output)
            sys.stdout.buffer.flush()
        except BrokenPipeError as exc:
            # the reader closed the pipe early; point stdout at devnull so the
            # flush at interpreter exit has nothing to write (the SIGPIPE
            # note in Python's signal docs)
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            return _usage_error(ConfigError(f"cannot write stdout: {exc}"))
        return code
    try:
        Path(args.out).write_bytes(output)
    except OSError as exc:
        return _usage_error(ConfigError(f"cannot write --out: {exc}"))
    return code


if __name__ == "__main__":
    sys.exit(main())
