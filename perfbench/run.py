"""Benchmark for wordmix: seeded decision questions, checked verdicts.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads of BENCHMARK.json, whose cases corpus.py
makes, or "all" to run each in turn. The metric names and units printed
are those of BENCHMARK.json.

Each workload run happens in a fresh worker process (worker.py) that
decides a basket of cases through the public API, one after another.
Every verdict is checked against a reference that does not trust the
engine; a wrong verdict, a bad certificate or witness, an exception or a
worker killed by the hang guard counts as a failed case.

With --trace 0 the last stdout line carries the end-to-end metrics, all
times being the worker's CPU time (worker.py says why):

  setup_s          median over five fresh workers (two before the
                   measuring one, the measuring one, two after it) of
                   the CPU time from the worker's start to its first
                   timed decision
  decisions_per_s  basket size / sum over the basket's cases of each
                   case's mean decision time over the run's passes
  decide_ms_p50    median of the decision times of the run's whole
                   passes, pooled over cases and passes
  decide_ms_tail   of the same times, the highest order statistic with
                   at least ten above it (the median if there are fewer
                   than 22); its rank and the sample count are printed
  decided_frac     mean over the basket's cases of the share of their
                   decisions that were not "unknown"
  peak_rss_mb      peak resident memory of the measuring worker

With --trace 1 the worker decides one untraced and one traced pass over
the basket and the last line carries the per-layer metrics of tracer.py
instead; the traced verdicts must equal the untraced ones.

Above the last line come one "case" row per decision (workload, pass,
case id, question, verdict, ms, traces_checked) and the metrics as text.
The exit status is 0 only when every verdict passed its check.
"""

from __future__ import annotations

import argparse
import json
import queue
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

DECIDED = ("finite", "infinite", "equal", "not_equal")
# set-up-only workers on each side of the measuring one; spread over the
# run, they see more than one phase of a shared host's speed
SETUPS_AROUND = 2
# The hang guard: no case of any workload takes 15 s, and a run must end
# within 180 s.
SILENCE_S = 60.0
RUN_LIMIT_S = 170.0


class WorkerFailed(RuntimeError):
    """The worker ended before its set-up was done."""


def _pump(stream, q: queue.Queue) -> None:
    for line in stream:
        q.put(line)
    q.put(None)


def run_worker(args: list[str], deadline: float):
    """Start worker.py and collect its messages until it ends or the guard
    kills it. Returns (messages, killed)."""
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                            cwd=ROOT, stdout=subprocess.PIPE, text=True)
    q: queue.Queue = queue.Queue()
    reader = threading.Thread(target=_pump, args=(proc.stdout, q))
    reader.start()
    msgs, killed = [], False
    try:
        while True:
            wait = min(SILENCE_S, deadline - time.perf_counter())
            try:
                line = q.get(timeout=max(wait, 0.0))
            except queue.Empty:
                proc.kill()
                killed = True
                break
            if line is None:
                break
            msgs.append(json.loads(line))
    except BaseException:
        proc.kill()
        raise
    finally:
        proc.wait()
        reader.join()
        proc.stdout.close()
    if not msgs or "ready" not in msgs[0]:
        raise WorkerFailed(f"worker {' '.join(args)} exited with status "
                           f"{proc.returncode} before its set-up was done")
    # a worker that crashed mid-run counts like one the guard killed
    return msgs, killed or proc.returncode != 0


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile rank) of the highest order statistic with at
    least ten samples above it, or of the median if that is higher."""
    xs = sorted(samples)
    n = len(xs)
    if n <= 21:
        return statistics.median(xs), 50.0
    return xs[n - 11], 100.0 * (n - 10) / n


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 deadline: float) -> dict:
    args = [workload, str(seed), repr(seconds), "1" if trace else "0"]

    def setup_only() -> float:
        msgs, _ = run_worker(args + ["--setup-only"], deadline)
        return msgs[0]["ready"]

    around = 0 if trace else SETUPS_AROUND
    setups = [setup_only() for _ in range(around)]
    msgs, killed = run_worker(args, deadline)
    setups.append(msgs[0]["ready"])
    setups += [setup_only() for _ in range(around)]
    n = msgs[0]["cases"]
    rows = [m["row"] for m in msgs if "row" in m]
    done = next((m["done"] for m in msgs if "done" in m), {})

    # cases the guard cut off count as failed: the rest of the interrupted
    # pass, and in a traced run everything not yet compared
    if trace:
        attempted = 2 * n
        lost = 0 if done else attempted - len(rows)
    else:
        lost = n - len(rows) % n if killed else 0
        attempted = len(rows) + lost
    mismatches = done.get("mismatches", [])
    failed = sum(not r["ok"] for r in rows) + lost + len(mismatches)

    # Throughput and decided share per case over its passes, so that a
    # partial last pass keeps the basket's mix.
    by_slot = defaultdict(list)
    for r in rows:
        by_slot[r["slot"]].append(r)
    means = [statistics.fmean(r["ms"] for r in rs) for rs in by_slot.values()]
    decided = [statistics.fmean(r["verdict"] in DECIDED for r in rs)
               for rs in by_slot.values()]
    # percentiles over whole passes only: a partial last pass would add
    # the seed's first cases once more and shift the basket's mix
    ms = [r["ms"] for r in rows[:len(rows) // n * n]]
    tail_ms, tail_rank = tail(ms) if ms else (0.0, 0.0)
    e2e = {
        "setup_s": statistics.median(setups),
        "decisions_per_s": len(means) / (sum(means) / 1e3) if means else 0.0,
        "decide_ms_p50": statistics.median(ms) if ms else 0.0,
        "decide_ms_tail": tail_ms,
        "decided_frac": statistics.fmean(decided) if decided else 0.0,
        "peak_rss_mb": done.get("peak_rss_mb", 0.0),
    }
    # a killed traced run has no layers; it reports zeros and fails
    values = done.get("layers", {}) if trace else e2e
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0),
                           "unit": m["unit"]}
               for m in SPEC["per_layer" if trace else "end_to_end"]}

    for r in rows:
        print("case", workload, r["pass"], r["cid"], r["case"], r["verdict"],
              f"{r['ms']:.3f}", r["traces"], sep="\t")
        if not r["ok"]:
            print("FAIL", workload, r["cid"], r["why"], sep="\t")
    for text in mismatches:
        print("FAIL", workload, text, "traced verdict differs", sep="\t")
    if killed:
        print("FAIL", workload, f"worker killed by the hang guard; {lost} "
              f"cases of the interrupted pass count as failed", sep="\t")
    for name, m in metrics.items():
        print("metric", workload, name, m["value"], m["unit"], sep="\t")
    unknown = sum(r["verdict"] == "unknown" for r in rows)
    print("info", workload,
          f"{len(rows)} decisions over {n} cases; decide_ms_tail is "
          f"p{tail_rank:.1f} of {len(ms)} decision times; unknown_frac "
          f"{unknown / max(len(rows), 1):.4f}; failed_frac "
          f"{failed / attempted:.4f}"
          + (f"; spans in {done['spans']}" if "spans" in done else ""),
          sep="\t")
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    workloads = [w["name"] for w in SPEC["workloads"]]
    ap.add_argument("--workload", required=True,
                    choices=workloads + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args(argv)
    # a terminated benchmark still stops and reaps its worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    names = workloads if a.workload == "all" else [a.workload]
    results = {}
    for name in names:
        deadline = time.perf_counter() + RUN_LIMIT_S
        try:
            results[name] = run_workload(name, a.seed, a.seconds,
                                         bool(a.trace), deadline)
        except WorkerFailed as e:
            print(f"run.py: {e}", file=sys.stderr)
            return 2
    if len(results) == 1:
        out = results[a.workload]
    else:
        out = {"correct": all(r["correct"] for r in results.values()),
               "attempted": sum(r["attempted"] for r in results.values()),
               "failed": sum(r["failed"] for r in results.values()),
               "metrics": {f"{w}/{k}": m for w, r in results.items()
                           for k, m in r["metrics"].items()}}
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
