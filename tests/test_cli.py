import json

import pytest

from wordmix import DeBruijnGraph, FinitenessCertificate, build, is_trace
from wordmix import cli
from wordmix.cli import _validate_finiteness_certificate, run
from wordmix.errors import WitnessError

from conftest import plist


def _lines(capsys):
    out = capsys.readouterr()
    return out.out.splitlines(), out.err.splitlines()


def test_finite_infinite(capsys):
    code = run(["finite", "--alphabet", "ab", "ab,ba,a"])
    out, _ = _lines(capsys)
    assert code == 0
    assert out[0] == "infinite"
    assert any(l.startswith("  trace path:") for l in out)
    assert any(l.startswith("  example member:") for l in out)


def test_finite_negative(capsys):
    code = run(["finite", "--alphabet", "ab", "ab,ba,a,b"])
    out, _ = _lines(capsys)
    assert code == 1
    assert out == ["finite (N=2, all traces exhausted)"]


def test_finite_json(capsys):
    code = run(["finite", "--alphabet", "ab", "ab,ba,a", "--json"])
    out, _ = _lines(capsys)
    assert code == 0
    payload = json.loads(out[0])
    assert payload["verdict"] == "infinite"
    assert set(payload["certificate"]) == {"trace", "x", "y"}
    assert payload["certificate"]["x"] == [1]
    # keys are sorted, so re-serializing reproduces the line exactly
    assert out[0] == json.dumps(payload, sort_keys=True)


def test_finite_json_deterministic(capsys):
    run(["finite", "--alphabet", "ab", "ab,ba,a", "--json"])
    first = json.loads(_lines(capsys)[0][0])
    run(["finite", "--alphabet", "ab", "ab,ba,a", "--json"])
    second = json.loads(_lines(capsys)[0][0])
    first["stats"].pop("elapsed_ms")
    second["stats"].pop("elapsed_ms")
    assert first == second


def test_finite_unknown_on_cap(capsys):
    code = run(["finite", "--alphabet", "ab", "ab,ba,a,b",
                "--max-traces", "3"])
    out, _ = _lines(capsys)
    assert code == 2
    assert out[0].startswith("unknown (")


def test_finite_dump_systems(capsys):
    code = run(["finite", "--alphabet", "ab", "ab,ba,a",
                "--json", "--dump-systems"])
    out, _ = _lines(capsys)
    assert code == 0
    verdict = json.loads(out[-1])
    dumps = [json.loads(l) for l in out[:-1]]
    assert len(dumps) == verdict["stats"]["traces_checked"]
    for entry in dumps:
        assert set(entry) == {"trace", "balance", "pumping_rows"}
        assert entry["balance"]["lower"] == [1] * len(
            entry["trace"]["cycles"])


def test_finite_past_the_cycle_guard(capsys):
    """aaaaa,bbbbb is past the cycle guard; a trace over its short cycles
    certifies it, and the certificate passes the counting check."""
    code = run(["finite", "--alphabet", "ab", "--json", "aaaaa,bbbbb"])
    out, _ = _lines(capsys)
    assert code == 0
    payload = json.loads(out[0])
    assert payload["verdict"] == "infinite"
    assert payload["certificate"]["trace"] == {
        "path": ["ababa"], "cycles": [["ababa", "babab", "ababa"]]}
    assert payload["stats"]["pruned"] is False
    code = run(["finite", "--alphabet", "ab", "a,b,aaaaa",
                "--max-traces", "700"])
    out, _ = _lines(capsys)
    assert (code, out) == (2, ["unknown (more than 100000 rooted cycles)"])


def test_finite_pruned_names_the_prune(capsys):
    code = run(["finite", "--alphabet", "ab", "aa,ab,b,a,b"])
    out, _ = _lines(capsys)
    assert code == 1
    assert out == ["finite (N=2, no cycle combination pumps)"]
    code = run(["witness", "--alphabet", "ab", "aa,ab,b,a,b"])
    out, _ = _lines(capsys)
    assert code == 1
    assert out == ["finite (N=2, no cycle combination pumps)"]


def test_finite_pruned_dumps_no_systems(capsys):
    code = run(["finite", "--alphabet", "ab", "aa,ab,b,a,b",
                "--json", "--dump-systems"])
    out, _ = _lines(capsys)
    assert code == 1
    assert len(out) == 1
    verdict = json.loads(out[0])
    assert verdict["verdict"] == "finite"
    assert verdict["stats"]["traces_checked"] == 0
    assert verdict["stats"]["pruned"] is True


def test_finite_dump_systems_skip_cycle_free_traces(capsys):
    code = run(["finite", "--alphabet", "ab", "ab,ba,a,b",
                "--json", "--dump-systems"])
    out, _ = _lines(capsys)
    assert code == 1
    verdict = json.loads(out[-1])
    assert verdict["stats"]["pruned"] is False
    dumps = [json.loads(l) for l in out[:-1]]
    assert len(dumps) == verdict["stats"]["traces_checked"] > 0
    assert all(entry["trace"]["cycles"] for entry in dumps)
    # each trace once, in the order the decision checked them
    assert len({json.dumps(e["trace"]) for e in dumps}) == len(dumps)


def test_equiv_not_equal(capsys):
    code = run(["equiv", "--alphabet", "ab", "ab,ba,a", "--", "ab,ba,a,b"])
    out, _ = _lines(capsys)
    assert code == 1
    assert out[0].startswith("not equal (witness ")
    assert "member of list" in out[0]


def test_equiv_equal(capsys):
    code = run(["equiv", "--alphabet", "ab", "a,b", "--", "b,a"])
    out, _ = _lines(capsys)
    assert code == 0
    assert out == ["equal"]


def test_equiv_unknown_on_cap(capsys):
    code = run(["equiv", "--alphabet", "ab", "--max-traces", "3",
                "a,b", "--", "b,a"])
    out, _ = _lines(capsys)
    assert code == 2
    assert out == ["unknown (more than 3 traces)"]


def test_equiv_json(capsys):
    # flags must come before the positional separator
    code = run(["equiv", "--alphabet", "ab", "--json",
                "aa,bb", "--", "aa,bb,ab"])
    out, _ = _lines(capsys)
    assert code == 1
    payload = json.loads(out[0])
    assert payload["verdict"] == "not_equal"
    assert set(payload["certificate"]) == {"witness_word", "member_of"}


def test_equiv_dump_systems(capsys):
    code = run(["equiv", "--alphabet", "ab", "--json", "--dump-systems",
                "a,b", "--", "b,a"])
    out, _ = _lines(capsys)
    assert code == 0
    verdict = json.loads(out[-1])
    dumps = [json.loads(l) for l in out[:-1]]
    assert len(dumps) == verdict["stats"]["traces_checked"]
    assert all("branches" in d for d in dumps)


def test_member(capsys):
    assert run(["member", "--alphabet", "ab", "ab,ba,a", "babab"]) == 0
    out, _ = _lines(capsys)
    assert out == ["member (counts (2, 2, 2))"]
    assert run(["member", "--alphabet", "ab", "ab,ba,a", "ab"]) == 1
    out, _ = _lines(capsys)
    assert out[0].startswith("non-member")
    # the empty word is always a member
    assert run(["member", "--alphabet", "ab", "ab,ba", ""]) == 0


def test_member_json(capsys):
    run(["member", "--alphabet", "ab", "ab,ba,a", "babab", "--json"])
    out, _ = _lines(capsys)
    payload = json.loads(out[0])
    assert payload["verdict"] == "member"
    assert payload["certificate"]["counts"] == [2, 2, 2]


def test_witness(capsys):
    code = run(["witness", "--alphabet", "ab", "a,b", "--n", "2"])
    out, _ = _lines(capsys)
    assert code == 0
    word = out[0]
    assert word.count("a") == word.count("b")


def test_witness_on_finite_language(capsys):
    code = run(["witness", "--alphabet", "ab", "ab,ba,a,b"])
    out, _ = _lines(capsys)
    assert code == 1
    assert out == ["finite (N=2, all traces exhausted)"]


def test_witness_json(capsys):
    code = run(["witness", "--alphabet", "ab", "ab,ba,a", "--json"])
    out, _ = _lines(capsys)
    assert code == 0
    payload = json.loads(out[0])
    assert payload["certificate"]["n"] == 1
    assert payload["certificate"]["witness_word"]


# M(a,b) over D^1: the word of path ab counts a and b once each, cycle
# b -> b adds a b, cycle a -> b -> a adds "ba" and cycle a -> a adds an a,
# so multiplicities (u, v, w) balance exactly when u = w
AB_LIST = plist("ab", "a", "b")
PUMPED = is_trace(build(AB_LIST.alphabet, 1),
                  [(0, 1), (0, 0), (1, 1), (0, 1, 0)])


def test_certificate_check_passes_and_returns_first_member():
    assert PUMPED.cycles == ((1, 1), (0, 1, 0), (0, 0))
    cert = FinitenessCertificate(PUMPED, (2, 1, 2), (1, 1, 1))
    assert "".join(_validate_finiteness_certificate(cert, AB_LIST)) == \
        "abbbaaab"


@pytest.mark.parametrize("x, y, p, message", [
    ((1, 1, 2), (1, 1, 1), AB_LIST, "membership"),
    # balanced and longer at n = 2, but x + 2y has zeros: no word at n = 3
    ((2, 1, 2), (-1, 2, -1), AB_LIST, "y >= 0"),
    ((2, 1, 2), (0, 0, 0), AB_LIST, "does not grow"),
    ((2, 1, 2), (1, 0, 0), AB_LIST, "membership"),
    ((2, 1, 2), (1, 1, 1), plist("ab", "a", "b", "ab"), "does not fit"),
    # one entry per cycle, neither more nor fewer
    ((2, 1, 2, 1), (1, 1, 1), AB_LIST, "per cycle"),
    ((2, 1, 2), (1, 1, 1, 5), AB_LIST, "per cycle"),
    ((2, 1, 2, 1), (1, 1, 1, 1), AB_LIST, "per cycle"),
    ((2, 1), (1, 1, 1), AB_LIST, "per cycle"),
], ids=["x-lowered", "y-negative", "y-zero", "y-off-kernel", "list-too-long",
        "x-too-long", "y-too-long", "both-too-long", "x-too-short"])
def test_certificate_check_rejects_tampering(x, y, p, message):
    with pytest.raises(WitnessError, match=message):
        _validate_finiteness_certificate(
            FinitenessCertificate(PUMPED, x, y), p)


def test_failed_recheck_exits_unknown(capsys, monkeypatch):
    def fail(cert, p):
        raise WitnessError("pumped word failed the membership re-check")

    monkeypatch.setattr(cli, "_validate_finiteness_certificate", fail)
    for command in ("finite", "witness"):
        code = run([command, "--alphabet", "ab", "ab,ba,a"])
        out, err = _lines(capsys)
        assert code == 2
        assert out == []
        assert err == ["unknown (pumped word failed the membership "
                       "re-check)"]


@pytest.mark.parametrize("argv", [
    ["finite", "ab,ba,a"],
    ["finite", "--json", "ab,ba,a"],
    ["witness", "ab,ba,a"],
    ["witness", "--json", "ab,ba,a"],
    ["equiv", "ab,ba,a", "--", "ba,ab,a,a"],
], ids=["finite", "finite-json", "witness", "witness-json", "equiv"])
def test_one_graph_build_per_call(capsys, monkeypatch, argv):
    builds = []
    init = DeBruijnGraph.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(DeBruijnGraph, "__init__", counting_init)
    assert run([argv[0], "--alphabet", "ab", *argv[1:]]) == 0
    assert len(builds) == 1


def test_enumerate(capsys):
    code = run(["enumerate", "--alphabet", "ab", "ab,ba", "--maxlen", "3"])
    out, _ = _lines(capsys)
    assert code == 0
    # the empty word prints as an empty line
    assert out[0] == ""
    assert "aba" in out
    assert "ab" not in out


def test_enumerate_census(capsys):
    code = run(["enumerate", "--alphabet", "ab", "ab,ba,a,b",
                "--maxlen", "3", "--census"])
    out, _ = _lines(capsys)
    assert code == 0
    assert out == ["length,count", "0,1", "1,0", "2,0", "3,0"]


def test_enumerate_budget(capsys):
    code = run(["enumerate", "--alphabet", "ab", "ab,ba",
                "--maxlen", "10", "--budget", "5"])
    _, err = _lines(capsys)
    assert code == 2
    assert err and err[0].startswith("unknown (")


def test_graph_summary(capsys):
    code = run(["graph", "--alphabet", "ab", "--dim", "2"])
    out, _ = _lines(capsys)
    assert code == 0
    assert out == ["D^2 over {a,b}: 4 vertices, 8 edges"]


def test_graph_word_overlay(capsys):
    code = run(["graph", "--alphabet", "ab", "--dim", "2",
                "--word", "babab"])
    out, _ = _lines(capsys)
    assert code == 0
    assert out[0] == "D^2 over {a,b}: 4 vertices, 8 edges"
    # babab starts at vertex ba and loops through ab once
    assert out[1] == "  path:   ba -> ab"
    assert out[2] == "  cycle:  ba -> ab -> ba"
    assert len(out) == 3


def test_graph_dot(capsys):
    code = run(["graph", "--alphabet", "ab", "--dim", "2", "--dot"])
    out, _ = _lines(capsys)
    assert code == 0
    assert out[0].startswith("digraph")
    assert [l for l in out if l][-1] == "}"


def test_graph_dimension_cap(capsys):
    code = run(["graph", "--alphabet", "ab", "--dim", "20"])
    _, err = _lines(capsys)
    assert code == 2
    assert err[0].startswith("unknown (")


@pytest.mark.parametrize("command", [
    ["finite", "a" * 13],
    ["equiv", "a" * 13, "--", "a" * 13],
    ["witness", "a" * 13],
], ids=["finite", "equiv", "witness"])
def test_vertex_guard_json_is_one_unknown_object(capsys, command):
    # 2^13 = 8192 vertices passes the fixed 4096-vertex guard
    code = run(command[:1] + ["--alphabet", "ab", "--json"] + command[1:])
    out, _ = _lines(capsys)
    assert code == 2
    assert len(out) == 1
    payload = json.loads(out[0])
    assert payload["verdict"] == "unknown"
    assert payload["stats"]["traces_checked"] == 0
    assert "4096" in payload["certificate"]["cap"]


def test_usage_errors(capsys):
    # unknown subcommand
    assert run(["frobnicate"]) == 64
    capsys.readouterr()
    # missing required alphabet
    assert run(["finite", "ab,ba"]) == 64
    capsys.readouterr()
    # multi-character alphabet symbol
    code = run(["finite", "--alphabet", "ab,cd", "ab"])
    _, err = _lines(capsys)
    assert code == 64
    assert err and err[0].startswith("error:")
    # word outside the alphabet
    assert run(["finite", "--alphabet", "ab", "ab,cx"]) == 64
    capsys.readouterr()
    # negative n
    assert run(["witness", "--alphabet", "ab", "a,b", "--n", "-1"]) == 64
    capsys.readouterr()
    # a count that is no integer
    assert run(["finite", "--alphabet", "ab", "--max-traces", "abc",
                "a,b"]) == 64
    _, err = _lines(capsys)
    assert err[-1].endswith("expected an integer >= 0, got 'abc'")
    # a graph of dimension 0, refused by the graph itself
    assert run(["graph", "--alphabet", "ab", "--dim", "0"]) == 64
    _, err = _lines(capsys)
    assert err == ["error: graph dimension must be at least 1"]
    # a word to overlay shorter than the dimension
    assert run(["graph", "--alphabet", "ab", "--dim", "3",
                "--word", "ab"]) == 64
    _, err = _lines(capsys)
    assert err == ["error: --word must be at least 3 symbols long"]


@pytest.mark.parametrize("argv", [
    ["finite", "--alphabet", "ab", "--max-traces", "-1", "ab,ba,a"],
    ["finite", "--alphabet", "ab", "--solver-budget", "-1", "ab,ba,a"],
    ["enumerate", "--alphabet", "ab", "ab,ba", "--maxlen", "2",
     "--budget", "-1"],
    ["graph", "--alphabet", "ab", "--dim", "2", "--max-vertices", "-1"],
    ["enumerate", "--alphabet", "ab", "ab,ba", "--maxlen", "-1"],
    ["witness", "--alphabet", "ab", "a,b", "--n", "-1"],
], ids=["max-traces", "solver-budget", "budget", "max-vertices", "maxlen",
        "n"])
def test_negative_count_is_a_usage_error(capsys, argv):
    assert run(argv) == 64
    _, err = _lines(capsys)
    assert err[-1].endswith("expected an integer >= 0, got '-1'")


@pytest.mark.parametrize("command", [
    ["finite", "--alphabet", "ab", "ab,ba,a"],
    ["equiv", "--alphabet", "ab", "a,b", "--", "b,a"],
    ["witness", "--alphabet", "ab", "ab,ba,a"],
])
@pytest.mark.parametrize("flag", ["--max-vertices", "--max-cycles-per-trace"])
def test_decisions_take_no_fixed_guard_flags(capsys, command, flag):
    assert run(command[:1] + [flag, "100"] + command[1:]) == 64
    capsys.readouterr()


def test_graph_max_vertices(capsys):
    # 2^3 = 8 vertices clears a cap of 8 but not one of 4
    assert run(["graph", "--alphabet", "ab", "--dim", "3",
                "--max-vertices", "8"]) == 0
    out, _ = _lines(capsys)
    assert out == ["D^3 over {a,b}: 8 vertices, 16 edges"]
    assert run(["graph", "--alphabet", "ab", "--dim", "3",
                "--max-vertices", "4"]) == 2
    _, err = _lines(capsys)
    assert err[0].startswith("unknown (")


def test_comma_alphabet_form(capsys):
    code = run(["finite", "--alphabet", "a,b", "ab,ba,a"])
    out, _ = _lines(capsys)
    assert code == 0 and out[0] == "infinite"


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    capsys.readouterr()
