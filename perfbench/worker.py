"""Benchmark worker: set up one workload in a fresh process and decide it.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE [--setup-only]

run.py starts it; it is a separate process so that every workload run
gets its own interpreter, its own peak RSS and a wall-clock guard. Set-up
is importing the library from the checkout's src/, building the corpus
with its references, and one untimed warm-up decision. Then the worker
decides the basket of cases in passes, one case after another (a closed
loop with one caller): at least one whole pass, then as long as the next
case, at its last time, still ends within SECONDS. With TRACE=1 it instead
decides exactly one untraced pass and one traced pass over the same cases.

Set-up and decisions are timed in the worker's CPU time (user + system).
The work is single-threaded and does no I/O, so on an unshared machine
this is its wall time; on a shared virtual machine it leaves out the time
the hypervisor runs other guests instead, which is most of the
run-to-run noise there (fresh set-ups of one workload took 1.16-2.05 s of
wall time but 0.95-1.09 s of CPU time on a 2-vCPU VM with 17% steal).

It writes one JSON object per line to stdout:
  {"ready": t, "cases": n}  set-up done after t seconds of CPU time,
                            with n cases in the basket
  {"row": {...}}   one decided case
  {"traced": cid}  one case decided again under the tracer
  {"done": {...}}  peak RSS, and in a traced run the per-layer metrics
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
clock = time.process_time


def emit(obj) -> None:
    print(json.dumps(obj), flush=True)


def import_engine():
    """Import wordmix from the checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import wordmix
    if Path(wordmix.__file__).resolve().parent != src / "wordmix":
        raise ImportError(f"wordmix was not imported from {src}")
    return wordmix


def asker(wordmix, caps):
    """case -> verdict, through the public API only."""
    def ask(case):
        if case.p2 is None:
            return wordmix.decide_finiteness(case.p1, caps)
        return wordmix.decide_equivalence(case.p1, case.p2, caps)
    return ask


def verify(wordmix, check, case, v) -> str | None:
    if case.p2 is None:
        return check.check_finiteness(case, v, wordmix.witness_family)
    return check.check_equivalence(case, v)


def decide_one(ask, verify_case, case, slot, pass_no):
    """Decide and check one case; returns (row, verdict)."""
    t0 = clock()
    try:
        v = ask(case)
    except Exception as e:
        ms = (clock() - t0) * 1e3
        return ({"slot": slot, "pass": pass_no, "cid": case.cid,
                 "case": case.text, "verdict": "error", "ms": ms,
                 "traces": 0, "ok": False, "why": repr(e)}, None)
    ms = (clock() - t0) * 1e3
    try:
        problem = verify_case(case, v)
    except Exception as e:
        problem = f"reference check raised {e!r}"
    return ({"slot": slot, "pass": pass_no, "cid": case.cid,
             "case": case.text, "verdict": v.verdict, "ms": ms,
             "traces": v.traces_checked, "ok": problem is None,
             "why": problem}, v)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv: list[str]) -> int:
    workload, seed, seconds, trace = argv[:4]
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    setup_only = "--setup-only" in argv[4:]

    wordmix = import_engine()
    sys.path.insert(0, str(HERE))
    import check
    import corpus
    from tracer import DECISION, Tracer

    w = corpus.WORKLOADS[workload]
    cases = w.make(seed)
    ask = asker(wordmix, w.caps)
    alpha, *lists = w.warmup
    warm = corpus.Case("warmup", corpus.plist(alpha, lists[0]),
                       corpus.plist(alpha, lists[1]) if len(lists) > 1
                       else None, "", "")
    ask(warm)
    emit({"ready": clock(), "cases": len(cases)})
    if setup_only:
        return 0

    def verify_case(case, v):
        return verify(wordmix, check, case, v)

    n = len(cases)
    if not trace:
        # after the first pass, start a case only if its last time still
        # fits before the deadline, so that a run ends near SECONDS
        deadline = time.perf_counter() + seconds
        last = [0.0] * n
        i = 0
        while i < n or time.perf_counter() + last[i % n] < deadline:
            row, _ = decide_one(ask, verify_case, cases[i % n], i % n, i // n)
            emit({"row": row})
            last[i % n] = row["ms"] / 1e3
            i += 1
        emit({"done": {"peak_rss_mb": peak_rss_mb()}})
        return 0

    untraced = []
    for i, case in enumerate(cases):
        row, v = decide_one(ask, verify_case, case, i, 0)
        emit({"row": row})
        untraced.append((row["ms"], v))

    tracer = Tracer()
    traced = []
    tracer.install()
    try:
        for i, case in enumerate(cases):
            tracer.case = case.cid
            t0 = clock()
            try:
                v = tracer.call(DECISION, ask, case)
            except Exception:
                v = None
            traced.append(((clock() - t0) * 1e3, v))
            emit({"traced": case.cid})  # keeps the hang guard per case
    finally:
        tracer.restore()

    mismatches = [cases[i].text for i, ((_, a), (_, b))
                  in enumerate(zip(untraced, traced)) if a != b]
    layers = tracer.metrics()
    layers["bench.trace_overhead"] = (sum(ms for ms, _ in traced)
                                      / sum(ms for ms, _ in untraced) - 1)
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{workload}-{seed}.jsonl"
    tracer.write(spans)
    emit({"done": {"peak_rss_mb": peak_rss_mb(), "layers": layers,
                   "mismatches": mismatches,
                   "spans": str(spans.relative_to(ROOT))}})
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
