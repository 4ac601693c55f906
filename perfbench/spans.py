"""In-memory span tracer for dotmol's module boundaries.

The tracer replaces each target function ("module.function") in every
dotmol module that holds a reference to it, so a call is recorded wherever
the calling module looks the name up. Each call becomes a span (name,
start, end, parent) in a flat integer array; self time is the span's
duration minus its children's.
Nothing is written until the caller asks for it. A target that a later
version of dotmol no longer has is listed as absent and reports zeros.
"""
from __future__ import annotations

import sys
import time
from array import array

# register kernels whose computed traffic is 2^n complex128 amplitudes per call
KERNELS = ("register.apply_rotation", "register.ising_phase")
SCHEDULE_BUILDERS = ("scheduler.compile_circuit", "scheduler.init_schedule")
PACKAGE = "dotmol"


class Tracer:
    """Spans and counters for one traced pass at a time."""

    def __init__(self, targets):
        self.targets = tuple(targets)        # "module.function", module within PACKAGE
        self.names: list[str] = []
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self):
        self.spans = array("q")          # name id, start ns, end ns, parent index
        self._stack: list[int] = []
        self.counters = {"states_allocated": 0, "amp_bytes": 0, "steps": 0,
                         "actions": 0, "schedule_ns": 0.0, "rule_violations": 0,
                         "budget_violations": 0}

    # --- installation ---

    def install(self):
        self.names.clear()
        self.absent.clear()
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))]
        for qualified in self.targets:
            short, fname = qualified.split(".")
            original = getattr(sys.modules.get(f"{PACKAGE}.{short}"), fname, None)
            if not callable(original):
                self.absent.append(qualified)
                continue
            wrapper = self._wrap(qualified, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapper)
        state_cls = getattr(sys.modules.get(f"{PACKAGE}.register"),
                            "EncodedRegisterState", None)
        post_init = getattr(state_cls, "__post_init__", None)
        if post_init is None:
            self.absent.append("register.EncodedRegisterState.__post_init__")
        else:
            def counted(obj):
                self.counters["states_allocated"] += 1
                post_init(obj)
            self._patch(state_cls, "__post_init__", counted)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, qualified: str, fn):
        name_id = len(self.names)
        self.names.append(qualified)
        clock = time.perf_counter_ns
        kernel = qualified in KERNELS
        builder = qualified in SCHEDULE_BUILDERS

        def traced(*args, **kwargs):
            spans, stack = self.spans, self._stack
            index = len(spans) // 4
            spans.extend((name_id, 0, 0, stack[-1] if stack else -1))
            stack.append(index)
            if kernel:
                self.counters["amp_bytes"] += 16 * getattr(
                    getattr(args[0], "amplitudes", None), "size", 0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[4 * index + 1] = start
                spans[4 * index + 2] = end
            self._count_result(qualified, builder, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_result(self, qualified: str, builder: bool, result):
        c = self.counters
        if builder:
            steps = getattr(result, "steps", ())
            c["steps"] += len(steps)
            c["actions"] += sum(len(s.actions) for s in steps)
            c["schedule_ns"] += sum(s.duration for s in steps)
        elif qualified == "scheduler.validate_program":
            c["rule_violations"] += len(result)
        elif qualified == "scheduler.time_budget":
            c["budget_violations"] += len(getattr(result, "violations", ()))

    # --- results ---

    def summary(self) -> dict[str, dict[str, float]]:
        """Per target: calls, total seconds and self seconds of this pass."""
        spans = self.spans
        count = len(spans) // 4
        child_ns = [0] * count
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        durations = [spans[4 * k + 2] - spans[4 * k + 1] for k in range(count)]
        for k in range(count):
            parent = spans[4 * k + 3]
            if parent >= 0:
                child_ns[parent] += durations[k]
        for k in range(count):
            entry = out[self.names[spans[4 * k]]]
            entry["calls"] += 1
            entry["total_s"] += durations[k] * 1e-9
            entry["self_s"] += (durations[k] - child_ns[k]) * 1e-9
        for name in self.absent:
            out[name] = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        return out

    def records(self) -> dict:
        """The pass's spans as JSON-ready rows [name, start_ns, end_ns, parent]."""
        spans = self.spans
        rows = [[self.names[spans[k]], spans[k + 1], spans[k + 2], spans[k + 3]]
                for k in range(0, len(spans), 4)]
        return {"absent": self.absent, "counters": self.counters, "spans": rows}
