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
import sys
from dataclasses import dataclass
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .electrostatics import (LayoutGeometry, Topology, background_interaction,
                             h_cc, nnn_coupling_ratio, pair_coupling)
from .measurement import BELL_LABELS, BellBranches, bell_branches, bell_state
from .physics import MoleculeParams, adiabatic_angle, charge_branch_energies, sin_sq_mixing
from .register import EncodedRegisterState, check_register_size
from .scheduler import (Action, Gate, ScheduleProgram, ScheduleStep,
                        compile_circuit, init_schedule, simulate_program,
                        time_budget, validate_program)
from .streams import stream_token, substream

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PHYSICS = 2
EXIT_BUDGET_WARNINGS = 3

# Bell trials and sweep points are held in memory until rendered. Peak RSS
# grows by ~761 bytes per Bell trial (JSON; CSV ~462) and ~490 bytes per
# sweep point (JSON; CSV ~193) over a ~36 MiB interpreter, measured on
# 10^5 and 2 * 10^5 rows. 10^6 rows then peak near 0.76 GiB (Bell) and
# 0.50 GiB (sweep), under a 1 GiB budget.
BELL_TRIAL_LIMIT = 1_000_000
SWEEP_POINT_LIMIT = 1_000_000


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
    workers: int = 1
    safety_factor: float = 10.0

    def __post_init__(self):
        if self.out_format not in ("json", "csv"):
            raise ConfigError(f"format must be json or csv, not {self.out_format!r}")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if not (math.isfinite(self.safety_factor) and self.safety_factor >= 1):
            raise ConfigError("safety_factor must be finite and >= 1")


def _build_topology(data: dict) -> Topology:
    kind = data.get("kind", "line")
    if kind == "line":
        return Topology.line(_scalar(int, data.get("n", 2), "n"))
    if kind == "grid":
        return Topology.grid(_scalar(int, data.get("rows"), "rows"),
                             _scalar(int, data.get("cols"), "cols"),
                             diagonal=_flag(data.get("diagonal", True), "diagonal"))
    raise ConfigError(f"unknown topology kind {kind!r}")


def _flag(value, key: str) -> bool:
    """A JSON boolean; anything else, "false" included, is a ConfigError."""
    if not isinstance(value, bool):
        raise ConfigError(f"{key} must be true or false, not {value!r}")
    return value


def _scalar(convert, value, key: str):
    """convert(value), with a failed conversion reported as a ConfigError."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{key} must be {convert.__name__}, not {value!r}") from exc


def load_config(path: str | Path, overrides: dict | None = None) -> RunConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file {path} does not exist")
    try:
        data = json.loads(path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config must be a JSON object, not {type(data).__name__}")
    overrides = overrides or {}
    try:
        geometry = LayoutGeometry(
            topology=_build_topology(data.get("geometry", {}).get("topology", {})),
            **{k: v for k, v in data.get("geometry", {}).items() if k != "topology"})
        params = MoleculeParams(**data.get("params", {}))
    except (AttributeError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad geometry or params: {exc}") from exc
    scenario = data.get("scenario")
    if not isinstance(scenario, dict) or "kind" not in scenario:
        raise ConfigError("config needs a scenario object with a 'kind'")
    if scenario["kind"] not in ("simulate", "compile", "bell", "sweep"):
        raise ConfigError(f"unknown scenario kind {scenario['kind']!r}")
    _validate_scenario(scenario, path.parent)
    cfg = dict(
        seed=_scalar(int, data.get("seed", 0), "seed"),
        out_format=str(data.get("format", "json")),
        echo=_flag(data.get("echo", False), "echo"),
        workers=_scalar(int, data.get("workers", 1), "workers"),
        safety_factor=_scalar(float, data.get("safety_factor", 10.0), "safety_factor"),
    )
    for key in ("seed", "out_format", "echo"):
        if overrides.get(key) is not None:
            cfg[key] = overrides[key]
    return RunConfig(geometry=geometry, params=params, scenario=scenario, **cfg)


def _validate_scenario(scenario: dict, base: Path):
    kind = scenario["kind"]
    if kind in ("simulate", "compile"):
        circuit = scenario.get("circuit")
        if not isinstance(circuit, str) or not circuit:
            raise ConfigError(f"{kind} scenario needs a 'circuit' file")
        if not (base / circuit).is_file() and not Path(circuit).is_file():
            raise ConfigError(f"circuit file {circuit!r} does not exist")
    elif kind == "bell":
        if scenario.get("input") not in BELL_LABELS:
            raise ConfigError(f"bell scenario needs input in {BELL_LABELS}")
        if not 1 <= _scalar(int, scenario.get("trials", 0), "trials") <= BELL_TRIAL_LIMIT:
            raise ConfigError(f"bell scenario needs 1 <= trials <= {BELL_TRIAL_LIMIT}")
    elif kind == "sweep":
        for key in ("start", "stop"):
            value = scenario.get(key)
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                raise ConfigError(f"sweep scenario needs finite {key!r}")
        if not 2 <= _scalar(int, scenario.get("points", 0), "points") <= SWEEP_POINT_LIMIT:
            raise ConfigError(f"sweep scenario needs 2 <= points <= {SWEEP_POINT_LIMIT}")
        if not all(isinstance(scenario.get(k), str) for k in ("parameter", "observable")):
            raise ConfigError("sweep scenario needs 'parameter' and 'observable' strings")


def parse_circuit(text: str) -> list[Gate]:
    """Parse circuit text: one gate per line, '#' comments.

    H i | Z i phi | XZ i axis phi | CNOT i j | CZ i j | MEASURE i | BELL i j
    """
    gates: list[Gate] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        op, args = tokens[0].upper(), tokens[1:]

        def ints(k):
            if len(args) != k:
                raise ConfigError(f"line {lineno}: {op} takes {k} argument(s)")
            try:
                return [int(a) for a in args]
            except ValueError as exc:
                raise ConfigError(f"line {lineno}: bad index in {line!r}") from exc

        try:
            if op == "H":
                gates.append(Gate("h", (ints(1)[0],)))
            elif op == "Z":
                if len(args) != 2:
                    raise ConfigError(f"line {lineno}: Z takes qubit and angle")
                gates.append(Gate("z", (int(args[0]),), angle=float(args[1])))
            elif op == "XZ":
                if len(args) != 3:
                    raise ConfigError(f"line {lineno}: XZ takes qubit, axis, angle")
                gates.append(Gate("xz", (int(args[0]),),
                                  axis_angle=float(args[1]), angle=float(args[2])))
            elif op in ("CNOT", "CZ", "BELL"):
                i, j = ints(2)
                gates.append(Gate(op.lower(), (i, j)))
            elif op == "MEASURE":
                gates.append(Gate("measure", (ints(1)[0],)))
            else:
                raise ConfigError(f"line {lineno}: unknown gate {op!r}")
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from exc
    return gates


# --- scenario execution ---

def _budget_json(report) -> dict:
    return {"limit": report.limit,
            "elapsed": {str(m): report.elapsed[m] for m in sorted(report.elapsed)},
            "read_counts": {str(m): report.read_counts[m]
                            for m in sorted(report.read_counts)},
            "violations": [{"molecule": v.molecule, "rule": v.rule,
                            "message": v.message} for v in report.violations]}


def _load_gates(config: RunConfig, config_dir: Path) -> list[Gate]:
    circuit = config.scenario["circuit"]
    path = (config_dir / circuit) if (config_dir / circuit).is_file() else Path(circuit)
    return parse_circuit(path.read_text())


def _run_compile(config: RunConfig, config_dir: Path) -> tuple[int, dict]:
    gates = _load_gates(config, config_dir)
    program = compile_circuit(gates, config.geometry, config.params,
                              config.safety_factor)
    findings = validate_program(program, config.geometry.topology.adjacency())
    report = time_budget(program, config.params, echo=config.echo)
    payload = {"scenario": "compile", "schedule": program,
               "validation": [v.message for v in findings],
               "budget": _budget_json(report)}
    return (EXIT_OK if report.ok else EXIT_BUDGET_WARNINGS), payload


def _run_simulate(config: RunConfig, config_dir: Path) -> tuple[int, dict]:
    check_register_size(config.geometry.topology.size)
    gates = _load_gates(config, config_dir)
    prologue = init_schedule(config.geometry.topology, config.params,
                             config.safety_factor)
    compiled = compile_circuit(gates, config.geometry, config.params,
                               config.safety_factor)
    program = ScheduleProgram(prologue.steps + compiled.steps,
                              config.geometry.topology.size)
    rng = substream(config.seed, "simulate")
    state, events = simulate_program(program, config.geometry, config.params, rng)
    report = time_budget(program, config.params, echo=config.echo)
    payload = {"scenario": "simulate",
               "final_state": state,
               "charge_flags": list(state.charge_flags),
               "events": events,
               "budget": _budget_json(report)}
    return (EXIT_OK if report.ok else EXIT_BUDGET_WARNINGS), payload


@lru_cache(maxsize=32)
def _bell_branches(label: str, g: LayoutGeometry, params: MoleculeParams,
                   safety_factor: float) -> BellBranches:
    """Branch table of one Bell input on molecules (0, 1); trials only sample
    it. Every run with the same key shares the table, so nothing modifies it."""
    return bell_branches(bell_state(label), 0, 1, g, params, safety_factor)


def _run_bell(config: RunConfig) -> tuple[int, dict]:
    label = config.scenario["input"]
    trials = int(config.scenario["trials"])
    if config.geometry.topology.size < 2:
        raise ValueError("bell scenario needs at least two molecules")
    branches = _bell_branches(label, config.geometry, config.params,
                              config.safety_factor)

    def one(trial: int) -> dict:
        outcome = branches.sample(substream(config.seed, "bell", label, trial))
        return {"trial": trial, "seed": stream_token("bell", label, trial),
                "input": label, "round1": outcome.round1,
                "round2": outcome.round2,
                "classification": outcome.classification,
                "phi": outcome.phi}

    outcomes = [one(t) for t in range(trials)]
    payload = {"scenario": "bell", "input": label, "trials": trials,
               "outcomes": outcomes}
    return EXIT_OK, payload


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
    start, stop, points = float(sc["start"]), float(sc["stop"]), int(sc["points"])
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
            g = LayoutGeometry(
                intra_dot_distance=config.geometry.intra_dot_distance,
                inter_molecule_distance=v, layout=config.geometry.layout,
                topology=config.geometry.topology,
                relative_permittivity=config.geometry.relative_permittivity)
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
_JSON_COMPOUND = (dict, list, tuple, Action, ScheduleStep, ScheduleProgram,
                  EncodedRegisterState)


def _json_chunks(value, lead: str, pad: str, out: list[str]) -> None:
    """Append value to out as json.dumps(value, sort_keys=True, indent=2)
    writes it, nested at indent pad, with lead (the separator before it).
    Schedules are written as their schedule JSON and register states as
    register.state_json pairs, straight from the objects. Keys must be
    str; any other key or value type is a TypeError."""
    if not isinstance(value, _JSON_COMPOUND):
        out.append(lead + _json_scalar(value))
    elif isinstance(value, dict):
        members = []
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            members.append((key, value[key]))
        _members_chunks(members, lead, pad, out)
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append(lead + "[]")
            return
        inner = pad + "  "
        lead += "[\n" + inner
        for item in value:
            _json_chunks(item, lead, inner, out)
            lead = ",\n" + inner
        out.append("\n" + pad + "]")
    elif isinstance(value, Action):
        out.append(lead + _action_text(value, pad))
    elif isinstance(value, ScheduleStep):
        _members_chunks((("actions", value.actions), ("duration_ns", value.duration)),
                        lead, pad, out)
    elif isinstance(value, ScheduleProgram):
        _members_chunks((("molecule_count", value.molecule_count),
                         ("steps", value.steps)), lead, pad, out)
    else:
        out.append(lead + _state_text(value, pad))


def _members_chunks(members, lead: str, pad: str, out: list[str]) -> None:
    """A JSON object of (key, value) members given in sorted key order."""
    if not members:
        out.append(lead + "{}")
        return
    inner = pad + "  "
    lead += "{\n" + inner
    for key, value in members:
        _json_chunks(value, lead + encode_basestring_ascii(key) + ": ", inner, out)
        lead = ",\n" + inner
    out.append("\n" + pad + "}")


def _action_text(a: Action, pad: str) -> str:
    """One action's JSON at indent pad. hold_ns, ramp_ns and
    read_duration_ns appear only when nonzero, phase when set and
    rotation when present."""
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
    return template % tuple(map(_json_scalar, values))


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


def _flat_amplitudes(state: EncodedRegisterState) -> list[float]:
    """re0, im0, re1, im1, ... of the state, as Python floats."""
    return np.ascontiguousarray(state.amplitudes).view(float).tolist()


def _state_text(state: EncodedRegisterState, pad: str) -> str:
    """The state's register.state_json pairs as JSON at indent pad."""
    texts = list(map(float.__repr__, _flat_amplitudes(state)))
    texts = list(map(_JSON_SPECIAL_FLOATS.get, texts, texts))
    pair_pad = pad + "  "
    part_pad = pair_pad + "  "
    halves = iter(texts)
    pairs = map((",\n" + part_pad).join, zip(halves, halves))
    return (f"[\n{pair_pad}[\n{part_pad}"
            + f"\n{pair_pad}],\n{pair_pad}[\n{part_pad}".join(pairs)
            + f"\n{pair_pad}]\n{pad}]")


def _indented_json(payload) -> bytes:
    """json.dumps(payload, sort_keys=True, indent=2) plus a newline, as bytes,
    without the pure-Python encoder that indent switches json to."""
    out: list[str] = []
    _json_chunks(payload, "", "", out)
    out.append("\n")
    text = "".join(out)
    out.clear()  # free the chunks before the bytes copy
    return text.encode()


def _render(payload: dict, out_format: str) -> bytes:
    if out_format == "json":
        if payload.get("scenario") == "bell":
            # one self-contained JSON record per trial: appending trials
            # never rewrites earlier lines
            return ("\n".join(json.dumps(row, sort_keys=True)
                              for row in payload["outcomes"]) + "\n").encode()
        return _indented_json(payload)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    kind = payload.get("scenario")
    if kind == "sweep":
        writer.writerow([payload["parameter"], payload["observable"]])
        writer.writerows(payload["rows"])
    elif kind == "bell":
        writer.writerow(["trial", "seed", "input", "round1", "round2",
                         "classification", "phi"])
        for row in payload["outcomes"]:
            writer.writerow([row["trial"], row["seed"], row["input"],
                             row["round1"], row["round2"] or "",
                             row["classification"], repr(row["phi"])])
    elif kind == "simulate":
        writer.writerow(["index", "re", "im"])
        halves = iter(_flat_amplitudes(payload["final_state"]))
        for index, (re, im) in enumerate(zip(halves, halves)):
            writer.writerow([index, repr(re), repr(im)])
    else:
        raise ConfigError(f"scenario {kind!r} has no CSV rendering; use json")
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
    parser.add_argument("--format", choices=("json", "csv"), default=None,
                        help="override output format")
    parser.add_argument("--echo", action="store_true", default=None,
                        help="budget against the echo-extended coherence window")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK

    try:
        config = load_config(args.config, overrides={
            "seed": args.seed, "out_format": args.format, "echo": args.echo})
    except ConfigError as exc:
        return _usage_error(exc)

    try:
        code, output = run(config, Path(args.config).parent)
    except ConfigError as exc:
        return _usage_error(exc)
    except (ValueError, ArithmeticError) as exc:
        record = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        code = EXIT_PHYSICS
        output = _indented_json(record)

    if not args.out:
        sys.stdout.buffer.write(output)
        return code
    try:
        Path(args.out).write_bytes(output)
    except OSError as exc:
        return _usage_error(ConfigError(f"cannot write --out: {exc}"))
    return code


if __name__ == "__main__":
    sys.exit(main())
