"""Tests of the benchmark itself: metric names, reference checks, tracer.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import importlib
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import corpus  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import wordmix  # noqa: E402
from tracer import DECISION, Tracer, balance_key, pump_key  # noqa: E402
from worker import asker  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args) -> tuple[list[str], dict]:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=170)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    return lines, json.loads(lines[-1])


def _printed(lines) -> dict[str, str]:
    """metric name -> unit, from the text lines above the JSON."""
    out = {}
    for line in lines:
        if line.startswith("metric\t"):
            _, _, name, _, unit = line.split("\t")
            out[name] = unit
    return out


def test_every_metric_printed_with_its_unit():
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        lines, result = _bench("--workload", "frontier", "--seed", "4",
                               "--seconds", "1", "--trace", trace)
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        assert _printed(lines) == want
        assert {k: v["unit"] for k, v in result["metrics"].items()} == want
        if trace == "0":
            assert all(v["value"] > 0 for v in result["metrics"].values())
        assert result["correct"] and result["failed"] == 0
        assert isinstance(result["attempted"], int) and result["attempted"] > 0


def _traced_pass(cases, caps):
    ask = asker(wordmix, caps)
    t = Tracer()
    t.install()
    try:
        verdicts = []
        for case in cases:
            t.case = case.cid
            verdicts.append(t.call(DECISION, ask, case))
    finally:
        t.restore()
    return verdicts, t.metrics()


def _mixed_cases():
    front = corpus.WORKLOADS["frontier"]
    fast = [c for c in front.make(5)
            if c.cid in ("x0", "x3", "x4", "x5", "x8")]
    not_equal = [c for c in corpus.equiv_n2(5) if c.expect == "not_equal"][:20]
    return fast + not_equal, front.caps


def test_traced_counts_repeat_and_match_verdicts():
    cases, caps = _mixed_cases()
    untraced = [asker(wordmix, caps)(c) for c in cases]
    first, m1 = _traced_pass(cases, caps)
    second, m2 = _traced_pass(cases, caps)
    assert first == second == untraced
    # the worker adds the overhead, which needs an untraced pass
    layers = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert set(m1) | {"bench.trace_overhead"} == set(layers)
    counts = [name for name in m1 if layers[name] in ("count", "ratio")]
    assert {k: m1[k] for k in counts} == {k: m2[k] for k in counts}
    assert m1["traces.yielded"] == sum(v.traces_checked for v in first)
    assert m1["decide.calls"] == len(cases)
    assert m1["traces.cap_hits"] == sum(v.verdict == "unknown" for v in first)
    assert m1["decomp.comp_calls"] == sum(
        v.verdict == "not_equal" and v.traces_checked > 0 for v in first)


def test_tracer_restores_every_name():
    before = {(m, a): getattr(importlib.import_module(m), a)
              for m, a, _ in tracer_mod.TARGETS}
    t = Tracer()
    t.install()
    assert all(getattr(importlib.import_module(m), a) is not f
               for (m, a), f in before.items())
    t.restore()
    assert all(getattr(importlib.import_module(m), a) is f
               for (m, a), f in before.items())


def test_distinct_system_keys_match_roadmap_figures():
    # ROADMAP: on 01: 0,1,00,11 the 1236 traces give 48 distinct pumping
    # and 488 distinct balance systems, up to the order of cycles
    p = corpus.plist("01", "0,1,00,11")
    traces = list(wordmix.enumerate_traces(wordmix.build(p.alphabet, 2)))
    pumps = {pump_key(wordmix.build_pumping_system(T, p), len(T.cycles))
             for T in traces}
    balances = {balance_key(wordmix.build_balance_system(T, p))
                for T in traces}
    assert (len(traces), len(pumps), len(balances)) == (1236, 48, 488)


def test_reference_checks_reject_wrong_answers():
    inf = corpus.Case("t", corpus.plist("ab", "ab,ba,a"), None, "infinite",
                      "test")
    v = wordmix.decide_finiteness(inf.p1)
    assert check.check_finiteness(inf, v, wordmix.witness_family) is None
    wrong = wordmix.FinitenessVerdict("finite", None, v.traces_checked)
    assert check.check_finiteness(inf, wrong, wordmix.witness_family)
    shrunk = wordmix.FinitenessCertificate(v.certificate.trace,
                                           v.certificate.x,
                                           (0,) * len(v.certificate.y))
    bad = wordmix.FinitenessVerdict("infinite", shrunk, v.traces_checked)
    assert "grow" in check.check_finiteness(inf, bad, wordmix.witness_family)

    ne = corpus.Case("t", corpus.plist("ab", "ba,bb,a,a"),
                     corpus.plist("ab", "a,ab,bb,ba"), "not_equal", "test")
    v = wordmix.decide_equivalence(ne.p1, ne.p2)
    assert check.check_equivalence(ne, v) is None
    liar = wordmix.EquivalenceVerdict("not_equal", tuple("ab"), 1, 0)
    assert check.check_equivalence(ne, liar)
    flipped = wordmix.EquivalenceVerdict("not_equal", v.witness,
                                         3 - v.member_of, v.traces_checked)
    assert check.check_equivalence(ne, flipped)
    assert check.count("aaaa", "aa") == 3


def test_corpus_is_seeded():
    for name in (w["name"] for w in SPEC["workloads"]):
        w = corpus.WORKLOADS[name]
        assert w.make(11) == w.make(11)
    assert corpus.equiv_n2(11) != corpus.equiv_n2(12)
    assert corpus.finite_n2(11) != corpus.finite_n2(12)
    assert corpus.infinite_early(11) != corpus.infinite_early(12)
