"""Outside-in tracer for the traced benchmark run.

It replaces, for the length of one pass, the public names that the
decision code looks up in its own module namespaces (so a call from
decide.py to build_balance_system goes through the wrapper) and restores
every one of them afterwards. Each call becomes a span (name, start, end,
parent, case id) kept in memory; per-layer metrics are computed from the
spans after the pass, and the spans can be written out at the end. Spans
are timed in the process's CPU time, like the benchmark's decisions.

A span's self time is its duration minus the durations of its children
and minus the tracer's own bookkeeping around each child (opening and
closing the child's span, and working out what it keeps besides its
times), which happens inside the span but outside the child. Calls are
sequential, so children never overlap. The pass's spans therefore
partition the decision time, apart from the small self time of
decide.realize_walk and the wrappers' own calls.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

# (module, attribute, span name); the span name is "<layer>.<function>"
TARGETS = (
    ("wordmix.decide", "enumerate_traces", "traces.enumerate_traces"),
    ("wordmix.traces", "enumerate_cycles", "traces.enumerate_cycles"),
    ("wordmix.decide", "build", "debruijn.build"),
    ("wordmix.linarith", "build", "debruijn.build"),
    ("wordmix.linarith", "walk_occ", "debruijn.walk_occ"),
    ("wordmix.decide", "build_pumping_system", "linarith.build_pumping_system"),
    ("wordmix.decide", "homogeneous_nontrivial", "linarith.homogeneous_nontrivial"),
    ("wordmix.decide", "build_balance_system", "linarith.build_balance_system"),
    ("wordmix.decide", "solve_system", "linarith.solve_system"),
    ("wordmix.decide", "build_psi_branches", "linarith.build_psi_branches"),
    ("wordmix.decide", "realize_walk", "decide.realize_walk"),
    ("wordmix.decide", "comp", "decomp.comp"),
    ("wordmix.decide", "is_member", "words.is_member"),
)

GENERATORS = {"traces.enumerate_traces"}

clock = time.process_time

# the span the benchmark opens around each public decision call
DECISION = "decide.decision"


def pump_key(coeffs, n_vars) -> tuple:
    """A pumping system up to the order of its columns (cycles)."""
    return n_vars, tuple(sorted(zip(*coeffs)))


def balance_key(system) -> tuple:
    """A balance system up to the order of its columns (cycles)."""
    cols = sorted(zip(zip(*system.coeffs), system.lower))
    return len(system.lower), tuple(cols), system.rels, system.rhs


def _info(name, args, result, error):
    """What a span keeps besides its times; computed outside the span."""
    info = {}
    if error is not None:
        info["error"] = error
    if name == "linarith.homogeneous_nontrivial":
        info["key"] = pump_key(*args)
    elif name == "linarith.solve_system":
        system = args[0]
        if system.label == "balance":
            info["kind"] = "balance"
            info["key"] = balance_key(system)
        else:
            info["kind"] = "branch"
    elif name == "traces.enumerate_cycles" and error is None:
        info["cycles"] = len(result)
    if name in ("linarith.homogeneous_nontrivial", "linarith.solve_system") \
            and error is None:
        info["feasible"] = result.feasible
    return info


class Tracer:
    """Spans of one traced pass. Not reentrant; one per pass."""

    def __init__(self):
        # [name, start, end, parent, case, info, bookkeeping around children]
        self.spans: list[list] = []
        self.case = ""
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        span = [name, 0.0, 0.0, parent, self.case, None, 0.0]
        self.spans.append(span)
        span[1] = clock()
        return span

    def _close(self, span: list) -> None:
        span[2] = clock()
        self._stack.pop()

    def _charge(self, span: list, entered: float) -> None:
        """Book the bookkeeping around span, since entered, to its parent."""
        if span[3] >= 0:
            self.spans[span[3]][6] += (span[1] - entered
                                       + clock() - span[2])

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args) inside a span named name."""
        entered = clock()
        span = self._open(name)
        error = None
        try:
            result = fn(*args, **kwargs)
        except Exception as e:
            error = type(e).__name__
            raise
        finally:
            self._close(span)
            span[5] = _info(name, args, None if error else result, error)
            self._charge(span, entered)
        return result

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def _wrap_generator(self, name: str, fn):
        # one span per next(): the generator's own work happens there
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                entered = clock()
                span = self._open(name)
                error = None
                try:
                    item = next(inner)
                except StopIteration:
                    return
                except Exception as e:
                    error = type(e).__name__
                    raise
                finally:
                    self._close(span)
                    span[5] = {"error": error} if error else {}
                    self._charge(span, entered)
                span[5]["yielded"] = True
                yield item
        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            orig = getattr(module, attr)
            self._saved.append((module, attr, orig))
            wrap = (self._wrap_generator if name in GENERATORS
                    else self._wrap)
            setattr(module, attr, wrap(name, orig))

    def restore(self) -> None:
        while self._saved:
            module, attr, orig = self._saved.pop()
            setattr(module, attr, orig)

    def write(self, path) -> None:
        """One JSON line per span: name, start and end in CPU seconds, parent
        index (-1 for a decision), case id, the span's outcome and the
        tracer's bookkeeping around its children in seconds."""
        with open(path, "w") as f:
            for name, t0, t1, parent, case, info, booked in self.spans:
                info = {k: v for k, v in info.items() if k != "key"}
                f.write(json.dumps([name, t0, t1, parent, case, info, booked])
                        + "\n")

    def metrics(self) -> dict[str, float]:
        """Per-layer counts, self times (ms) and ratios over all spans."""
        spans = self.spans
        child = [0.0] * len(spans)
        for _, t0, t1, parent, _, _, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls: dict[str, int] = defaultdict(int)
        ms: dict[str, float] = defaultdict(float)
        count: dict[str, int] = defaultdict(int)
        keys: dict[str, set] = defaultdict(set)
        balance_max = 0.0
        for i, (name, t0, t1, _, _, info, booked) in enumerate(spans):
            if name == "linarith.solve_system":
                name = f"linarith.{info['kind']}_solve"
                if info["kind"] == "balance":
                    balance_max = max(balance_max, (t1 - t0) * 1e3)
            calls[name] += 1
            ms[name] += (t1 - t0 - child[i] - booked) * 1e3
            for flag in ("feasible", "yielded"):
                count[f"{name}.{flag}"] += info.get(flag, False)
            if "error" in info:
                count[f"{name}.{info['error']}"] += 1
            if "key" in info:
                keys[name].add(info["key"])

        def ratio(name, part):
            return part / calls[name] if calls[name] else 0.0

        pump = "linarith.homogeneous_nontrivial"
        balance = "linarith.balance_solve"
        branch = "linarith.branch_solve"
        return {
            "debruijn.build_calls": calls["debruijn.build"],
            "debruijn.build_ms": ms["debruijn.build"],
            "debruijn.walk_occ_calls": calls["debruijn.walk_occ"],
            "debruijn.walk_occ_ms": ms["debruijn.walk_occ"],
            "traces.cycles": sum(s[5].get("cycles", 0) for s in spans),
            "traces.enumerate_cycles_ms": ms["traces.enumerate_cycles"],
            "traces.yielded": count["traces.enumerate_traces.yielded"],
            "traces.enum_ms": ms["traces.enumerate_traces"],
            # a cycle cap surfaces through the generator too: count it once
            "traces.cap_hits":
                count["traces.enumerate_traces.CapExceededError"],
            "linarith.pump_build_ms": ms["linarith.build_pumping_system"],
            "linarith.pump_solve_calls": calls[pump],
            "linarith.pump_solve_ms": ms[pump],
            "linarith.pump_feasible_ratio":
                ratio(pump, count[f"{pump}.feasible"]),
            "linarith.pump_distinct_ratio": ratio(pump, len(keys[pump])),
            "linarith.balance_build_ms": ms["linarith.build_balance_system"],
            "linarith.balance_solve_calls": calls[balance],
            "linarith.balance_solve_ms": ms[balance],
            "linarith.balance_solve_ms_max": balance_max,
            "linarith.balance_feasible_ratio":
                ratio(balance, count[f"{balance}.feasible"]),
            "linarith.balance_distinct_ratio":
                ratio(balance, len(keys[balance])),
            "linarith.budget_hits":
                count[f"{balance}.BudgetExceededError"]
                + count[f"{branch}.BudgetExceededError"],
            "linarith.branch_build_ms": ms["linarith.build_psi_branches"],
            "linarith.branch_solve_calls": calls[branch],
            "linarith.branch_solve_ms": ms[branch],
            "linarith.branch_feasible_ratio":
                ratio(branch, count[f"{branch}.feasible"]),
            "decomp.comp_calls": calls["decomp.comp"],
            "decomp.comp_ms": ms["decomp.comp"],
            "words.is_member_calls": calls["words.is_member"],
            "words.is_member_ms": ms["words.is_member"],
            "decide.calls": calls[DECISION],
            "decide.self_ms": ms[DECISION],
        }
