"""dotmol benchmark: drive the CLI on one seeded workload and report metrics.

    python3 perfbench/run.py --workload bell|simulate|compile --seed N \
        --seconds S --trace 0|1

Run it from anywhere inside a source checkout; dotmol is imported from the
checkout's src/ directory, never from an installed copy. One client, one
invocation at a time, no threads: a closed loop sized for a two-core VM.

--trace 0 measures the end-to-end metrics. Each round of the loop times
a fresh `import dotmol.cli` interpreter (setup_s), one pass of CLI
child processes (wall_s, peak_rss_mb) and in-process passes of
dotmol.cli.run in this warm interpreter (run_s, items_per_s), repeated
until they add up to half the CLI pass's wall time. Successive samples
take turns on the cores the process may use. Rounds repeat
until the next one would overrun --seconds. wall_s and run_s are the
means of their samples (total time over passes), setup_s and peak_rss_mb
the medians.

--trace 1 measures the per-layer metrics: `-X importtime` of a fresh
interpreter, then rounds of one untraced and one traced in-process pass.
Span self times are medians over traced passes, call counts and scheduler
statistics come from the last traced pass, and that pass's spans are
written to perfbench/out/trace-<workload>-seed<seed>.json.

Each round starts with a host-speed probe (a fixed pure-Python loop and
a fixed loop of small numpy calls) whose samples are printed on `#` lines
and never gated, so a slow host can be told from slow code.

Every output is checked by checks.py; every repeated invocation must
reproduce the first one's exit code and output sha256, which the run prints
so that byte-identity can be compared across commits. The last stdout line
is the JSON result.
"""
from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
import tomllib
import traceback
from importlib import metadata
from pathlib import Path

import numpy as np

import checks
import gen
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
CHILD_TIMEOUT_S = 120.0
IMPORTTIME_SAMPLES = 3

# functions the traced run wraps ("module.function" in dotmol) and the
# metrics each one reports
FUNCTION_METRICS = {
    "streams.substream": ("calls", "self_s"),
    "measurement.bell_measure": ("calls", "self_s"),
    "measurement.bell_state": ("calls", "self_s"),
    "measurement.qpc_read_pair": ("calls", "self_s"),
    "measurement.qpc_read_single": ("calls", "self_s"),
    "register.apply_rotation": ("calls", "self_s", "us_per_call"),
    "register.ising_phase": ("calls", "self_s", "us_per_call"),
    "register.phase_from_waveform": ("calls",),
    "register.state_json": ("self_s",),
    "scheduler.compile_circuit": ("self_s",),
    "scheduler.validate_program": ("self_s",),
    "scheduler.time_budget": ("self_s",),
    "scheduler.init_schedule": ("self_s",),
    "scheduler.simulate_program": ("self_s",),
    "cli.parse_circuit": ("self_s",),
    "cli.run": ("self_s",),
}
COUNTER_METRICS = {
    "register.states_allocated": ("states_allocated", "count"),
    "register.amp_bytes": ("amp_bytes", "B"),
    "scheduler.steps": ("steps", "count"),
    "scheduler.actions": ("actions", "count"),
    "scheduler.schedule_ns": ("schedule_ns", "ns"),
    "scheduler.rule_violations": ("rule_violations", "count"),
    "scheduler.budget_violations": ("budget_violations", "count"),
}
UNITS = {"calls": "count", "self_s": "s", "us_per_call": "us"}


class Run:
    """Outcome bookkeeping shared by every pass of one benchmark run."""

    def __init__(self, invocations):
        self.invocations = invocations
        self.attempts = {inv.name: 0 for inv in invocations}
        self.failures = {inv.name: 0 for inv in invocations}
        self.first: dict[str, tuple[int, bytes]] = {}
        self.digests: dict[str, tuple[int, str]] = {}
        self.problems: list[str] = []

    def record(self, inv, code: int | None, output: bytes | None, problem: str | None = None):
        """Count one invocation; the first result per input is kept for the
        checkers, later ones must reproduce its exit code and bytes."""
        self.attempts[inv.name] += 1
        if problem is None:
            digest = (code, hashlib.sha256(output).hexdigest())
            if inv.name not in self.first:
                self.first[inv.name] = (code, output)
                self.digests[inv.name] = digest
            elif digest != self.digests[inv.name]:
                problem = f"{inv.name}: result differs from its first run"
        if problem is not None:
            self.failures[inv.name] += 1
            self.problems.append(problem)

    @property
    def attempted(self) -> int:
        return sum(self.attempts.values())

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def check_outputs(self):
        """Run the checkers; a wrong first result fails every attempt of
        that input, since the others reproduced it."""
        for inv in self.invocations:
            if inv.name not in self.first:
                continue
            code, output = self.first.pop(inv.name)
            found = checks.check(inv, code, output)
            if found:
                self.failures[inv.name] = self.attempts[inv.name]
                self.problems += found


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(args: list[str], stdout_path: Path, stderr_path: Path):
    """Run one child to completion; (wall s, exit code, peak RSS MiB)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(args, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        fd = os.pidfd_open(proc.pid)
        try:
            ready, _, _ = select.select([fd], [], [], CHILD_TIMEOUT_S)
        finally:
            os.close(fd)
        if not ready:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def time_setup(scratch: Path) -> float:
    wall, code, _ = spawn([sys.executable, "-c", "import dotmol.cli"],
                          scratch / "setup.out", scratch / "setup.err")
    if code != 0:
        raise RuntimeError("import dotmol.cli failed: "
                           + (scratch / "setup.err").read_text()[-2000:])
    return wall


def cli_pass(run: Run, scratch: Path) -> tuple[float, float]:
    """One CLI child per invocation; (summed wall s, largest peak RSS MiB)."""
    wall_total, peak = 0.0, 0.0
    for inv in run.invocations:
        out, err = scratch / f"{inv.name}.out", scratch / f"{inv.name}.err"
        wall, code, rss = spawn([sys.executable, "-m", "dotmol.cli", "--config",
                                 str(inv.config)], out, err)
        wall_total += wall
        peak = max(peak, rss)
        stderr = err.read_text(errors="replace")
        problem = None
        if "Traceback" in stderr:
            problem = f"{inv.name}: CLI printed a traceback:\n{stderr[-2000:]}"
        run.record(inv, code, out.read_bytes(), problem)
    return wall_total, peak


def inprocess_pass(run: Run, cli) -> tuple[float, int]:
    """dotmol.cli.run on every config; (summed seconds, output bytes)."""
    total, size = 0.0, 0
    for inv in run.invocations:
        config = cli.load_config(inv.config)
        start = time.perf_counter()
        try:
            code, output = cli.run(config, inv.config.parent)
        except Exception:
            run.record(inv, None, None, f"{inv.name}: cli.run raised\n{traceback.format_exc()}")
            continue
        total += time.perf_counter() - start
        size += len(output)
        run.record(inv, code, output)
    return total, size


def host_probe() -> tuple[float, float]:
    """Milliseconds for a fixed pure-Python loop and a fixed loop of small
    numpy calls (the size of a two-molecule state). Neither touches dotmol,
    so a change in them between runs is the host's speed, not the code's."""
    start = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i
    py_ms = 1e3 * (time.perf_counter() - start)
    amplitudes = np.ones(4, dtype=complex)
    phases = np.exp(1j * np.arange(4))
    start = time.perf_counter()
    for _ in range(5_000):
        amplitudes = amplitudes * phases
        amplitudes /= np.linalg.norm(amplitudes)
    return py_ms, 1e3 * (time.perf_counter() - start)


def print_probes(probes: list[tuple[float, float]]):
    """Host-speed probe samples, one per round; recorded, never gated."""
    for k, name in enumerate(("probe_py_ms", "probe_np_ms")):
        print(f"# samples {name} " + " ".join(f"{p[k]:.3f}" for p in probes))


def loop_rounds(seconds: float, body):
    """Call body() until the next call would overrun `seconds` (at least once)."""
    deadline = time.perf_counter() + seconds
    durations = []
    while True:
        start = time.perf_counter()
        body()
        durations.append(time.perf_counter() - start)
        if time.perf_counter() + statistics.median(durations) > deadline:
            return len(durations)


def measure_end_to_end(run: Run, cli, seconds: float, scratch: Path) -> dict:
    work = sum(inv.work for inv in run.invocations)
    setups, walls, peaks, runs, probes = [], [], [], [], []
    # Each core's speed drifts on its own, for up to minutes at a time, so
    # successive samples take turns on the cores this process may use (CLI
    # children inherit the choice) and a run averages over all of them.
    cores = itertools.cycle(sorted(os.sched_getaffinity(0)))

    def next_core():
        os.sched_setaffinity(0, {next(cores)})

    def one_round():
        probes.append(host_probe())
        next_core()
        setups.append(time_setup(scratch))
        next_core()
        wall, peak = cli_pass(run, scratch)
        walls.append(wall)
        peaks.append(peak)
        # short passes repeat so run_s gets at least half as much clock as wall_s
        spent = 0.0
        while spent < wall / 2:
            next_core()
            runs.append(inprocess_pass(run, cli)[0])
            spent += runs[-1]

    rounds = loop_rounds(seconds, one_round)
    # The host switches between a fast and a slow CPU state every few
    # seconds, so a pass's time is bimodal. The median of a few passes jumps
    # between the two modes; the mean weighs each mode by its share of the
    # run and moves less from run to run.
    run_s = statistics.fmean(runs)
    print(f"# {rounds} rounds", flush=True)
    for name, samples in (("setup_s", setups), ("wall_s", walls), ("run_s", runs)):
        print(f"# samples {name} " + " ".join(f"{x:.4f}" for x in samples))
    print_probes(probes)
    return {
        "wall_s": (statistics.fmean(walls), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "run_s": (run_s, "s"),
        "items_per_s": (work / run_s, "1/s"),
        "peak_rss_mb": (statistics.median(peaks), "MiB"),
    }


def import_times(stderr: str) -> dict[str, float]:
    """Seconds spent importing numpy and scipy (inclusive, outermost entry
    of each package) and in dotmol's own module bodies, from -X importtime."""
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        self_us, cumulative_us, name = line[len("import time:"):].split("|", 2)
        depth = (len(name) - len(name.lstrip()) - 1) // 2   # "| " then two per level
        entries.append((depth, name.strip(), int(self_us), int(cumulative_us)))
    totals = {"numpy": 0, "scipy": 0, "dotmol": 0}
    ancestors: list[str] = []
    # -X importtime prints children before parents; walk it backwards so
    # every entry is seen after its ancestors.
    for depth, name, self_us, cumulative_us in reversed(entries):
        del ancestors[depth:]
        root = name.split(".", 1)[0]
        if root == "dotmol":
            totals["dotmol"] += self_us
        elif root in totals and all(a.split(".", 1)[0] != root for a in ancestors):
            totals[root] += cumulative_us
        ancestors.append(name)
    return {"import.numpy_s": totals["numpy"] * 1e-6,
            "import.scipy_s": totals["scipy"] * 1e-6,
            "import.dotmol_self_s": totals["dotmol"] * 1e-6}


def measure_layers(run: Run, cli, seconds: float, scratch: Path, header: dict) -> dict:
    samples = []
    for _ in range(IMPORTTIME_SAMPLES):
        _, code, _ = spawn([sys.executable, "-X", "importtime", "-c", "import dotmol.cli"],
                           scratch / "import.out", scratch / "import.err")
        if code != 0:
            raise RuntimeError("import dotmol.cli failed under -X importtime")
        samples.append(import_times((scratch / "import.err").read_text()))
    metrics = {name: (statistics.median(s[name] for s in samples), "s") for name in samples[0]}

    tracer = spans.Tracer(FUNCTION_METRICS)
    plain, traced, summaries, probes = [], [], [], []
    output_bytes = 0

    def one_round():
        nonlocal output_bytes
        probes.append(host_probe())
        plain.append(inprocess_pass(run, cli)[0])
        tracer.reset()
        tracer.install()
        try:
            elapsed, output_bytes = inprocess_pass(run, cli)
        finally:
            tracer.uninstall()
        traced.append(elapsed)
        summaries.append(tracer.summary())

    rounds = loop_rounds(seconds, one_round)
    print(f"# {rounds} rounds; absent functions: {sorted(set(tracer.absent)) or 'none'}",
          flush=True)
    print_probes(probes)
    last = summaries[-1]
    for name, kinds in FUNCTION_METRICS.items():
        for kind in kinds:
            if kind == "calls":
                value = last[name]["calls"]
            elif kind == "self_s":
                value = statistics.median(s[name]["self_s"] for s in summaries)
            else:
                value = statistics.median(1e6 * s[name]["self_s"] / s[name]["calls"]
                                          if s[name]["calls"] else 0.0 for s in summaries)
            metrics[f"{name}.{kind}"] = (value, UNITS[kind])
    for metric, (counter, unit) in COUNTER_METRICS.items():
        metrics[metric] = (tracer.counters[counter], unit)
    metrics["cli.output_bytes"] = (output_bytes, "B")
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")

    trace_file = OUT / f"trace-{run.invocations[0].kind}-seed{header['seed']}.json"
    trace_file.write_text(json.dumps({"header": header, "summary": last,
                                      **tracer.records()}) + "\n")
    print(f"# spans of the last traced pass: {trace_file.relative_to(ROOT)}", flush=True)
    return metrics


def git_commit() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def run_header(args) -> dict:
    """Machine and code facts recorded with every run; never gated."""
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "cores": os.cpu_count(),
        "python": platform.python_version(), "numpy": version("numpy"),
        "scipy": version("scipy"), "git_commit": git_commit(),
        "src_lines": sum(len(p.read_bytes().splitlines()) for p in SRC.rglob("*.py")),
        "runtime_dependencies": len(pyproject.get("project", {}).get("dependencies", [])),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dotmol" / "cli.py").is_file() or not (ROOT / "pyproject.toml").is_file():
        print(f"error: no dotmol source checkout at {ROOT} (need src/dotmol and "
              "pyproject.toml)", file=sys.stderr)
        return 2

    header = run_header(args)
    print("# header " + json.dumps(header, sort_keys=True), flush=True)
    scratch = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        invocations = gen.generate(args.workload, args.seed, scratch)
        run = Run(invocations)
        time_setup(scratch)                     # writes bytecode; not timed
        sys.path.insert(0, str(SRC))
        from dotmol import cli
        inprocess_pass(Run(invocations), cli)   # warm-up, results discarded
        if args.trace:
            metrics = measure_layers(run, cli, args.seconds, scratch, header)
        else:
            metrics = measure_end_to_end(run, cli, args.seconds, scratch)
        run.check_outputs()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for problem in run.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    for name, (code, sha) in run.digests.items():
        print(f"# output {name} exit {code} sha256 {sha}")
    print(f"# fail_ratio {run.failed / run.attempted:.6g} "
          f"({run.failed} of {run.attempted} invocations)")
    for name, (value, unit) in metrics.items():
        print(f"# {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
