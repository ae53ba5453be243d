"""Command line front end: decisions, witnesses, enumeration, export.

Exit codes: 0 for a decided positive answer (infinite / equal / member),
1 for a decided negative one, 2 for unknown (a cap or budget got in the
way, or a certificate failed its re-check), 64 for usage errors.
Finiteness early-exits on the first certifying trace; equivalence must
exhaust every trace of the graph before it may answer "equal".
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .debruijn import DEFAULT_MAX_VERTICES, build, to_dot, walk_of_word
from .decide import (Caps, decide_equivalence, decide_finiteness,
                     witness_family)
from .decomp import dec
from .errors import BudgetExceededError, DimensionCapError, WitnessError
from .linarith import (DEFAULT_NODE_BUDGET, build_balance_system,
                       build_psi_branches, build_pumping_system)
from .oracle import DEFAULT_WORD_BUDGET, census, enumerate_members
from .traces import DEFAULT_MAX_TRACES
from .words import (Alphabet, ParamList, Word, occ_vector, word_from_str,
                    word_to_str)

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures remapped onto exit code 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _parse_alphabet(text: str) -> Alphabet:
    parts = text.split(",") if "," in text else list(text)
    if any(len(s) != 1 for s in parts):
        raise ValueError(
            f"alphabet symbols must be single characters, got {text!r}")
    return Alphabet(tuple(parts))


def _parse_words(alphabet: Alphabet, text: str) -> ParamList:
    return ParamList(alphabet, tuple(word_from_str(s)
                                     for s in text.split(",")))


def _count(text: str) -> int:
    """argparse type of the count flags: an integer of at least 0."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected an integer >= 0, got {text!r}")
    return value


def _caps_from(args) -> Caps:
    return Caps(max_traces=args.max_traces, node_budget=args.solver_budget)


def _add_cap_flags(sub) -> None:
    sub.add_argument("--max-traces", type=_count, default=DEFAULT_MAX_TRACES,
                     help="stop after enumerating this many traces")
    sub.add_argument("--solver-budget", type=_count,
                     default=DEFAULT_NODE_BUDGET,
                     help="node budget for the integer solver")


def timed(fn, *args, **kwargs):
    """Run fn, returning (result, elapsed milliseconds)."""
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, (time.perf_counter() - t0) * 1000.0


def _fmt_walk(g, walk) -> str:
    return " -> ".join(word_to_str(g.vertex_word(v)) for v in walk)


def _build_parser() -> _Parser:
    parser = _Parser(prog="wordmix",
                     description="Decision procedures for languages of "
                                 "balanced subword occurrences.")
    subs = parser.add_subparsers(dest="command", required=True)

    finite = subs.add_parser(
        "finite",
        help="decide whether M(w1,...,wk) is infinite",
        description="Answers finite at once when no combination of "
                    "cycles pumps; otherwise streams the traces with "
                    "cycles of the de Bruijn graph and early-exits on the "
                    "first one whose balance and pumping systems are both "
                    "feasible.")
    finite.add_argument("--alphabet", required=True)
    finite.add_argument("words", help="comma-separated parameter words")
    finite.add_argument("--json", action="store_true")
    finite.add_argument("--dump-systems", action="store_true",
                        help="print the linear systems of every trace the "
                             "decision checks, as JSON lines before the "
                             "verdict (none when no cycle combination "
                             "pumps)")
    _add_cap_flags(finite)
    finite.set_defaults(func=_cmd_finite)

    equiv = subs.add_parser(
        "equiv",
        help="decide whether two parameter lists define the same language",
        description="Unlike finite, this cannot early-exit on success: "
                    "it must exhaust every trace of the graph before "
                    "answering equal. A distinguishing word is reported "
                    "otherwise.")
    equiv.add_argument("--alphabet", required=True)
    equiv.add_argument("list1", help="first comma-separated word list")
    equiv.add_argument("list2", help="second list (separate with --)")
    equiv.add_argument("--json", action="store_true")
    equiv.add_argument("--dump-systems", action="store_true",
                       help="print the negation branches of every checked "
                            "trace as JSON lines before the verdict")
    _add_cap_flags(equiv)
    equiv.set_defaults(func=_cmd_equiv)

    member = subs.add_parser(
        "member", help="test whether a word is in M(w1,...,wk)")
    member.add_argument("--alphabet", required=True)
    member.add_argument("words", help="comma-separated parameter words")
    member.add_argument("word", help="the word to test (may be empty)")
    member.add_argument("--json", action="store_true")
    member.set_defaults(func=_cmd_member)

    witness = subs.add_parser(
        "witness",
        help="print the n-th member of the pumped family of an "
             "infinite language")
    witness.add_argument("--alphabet", required=True)
    witness.add_argument("words", help="comma-separated parameter words")
    witness.add_argument("--n", type=_count, default=1)
    witness.add_argument("--json", action="store_true")
    _add_cap_flags(witness)
    witness.set_defaults(func=_cmd_witness)

    enum = subs.add_parser(
        "enumerate",
        help="list all members up to a length bound (exhaustive)")
    enum.add_argument("--alphabet", required=True)
    enum.add_argument("words", help="comma-separated parameter words")
    enum.add_argument("--maxlen", type=_count, required=True)
    enum.add_argument("--census", action="store_true",
                      help="print length,count CSV instead of the words")
    enum.add_argument("--budget", type=_count, default=DEFAULT_WORD_BUDGET,
                      help="refuse to scan more words than this")
    enum.set_defaults(func=_cmd_enumerate)

    graph = subs.add_parser(
        "graph", help="describe or export the de Bruijn graph")
    graph.add_argument("--alphabet", required=True)
    graph.add_argument("--dim", type=int, required=True)
    graph.add_argument("--dot", action="store_true",
                       help="emit DOT instead of a summary")
    graph.add_argument("--word",
                       help="overlay the walk of this word, split into "
                            "its decomposition (path solid, cycles dashed)")
    graph.add_argument("--max-vertices", type=_count,
                       default=DEFAULT_MAX_VERTICES)
    graph.set_defaults(func=_cmd_graph)

    return parser


# ---------------------------------------------------------------------------
# subcommand bodies


def _dump_finite(T, tables) -> None:
    """on_trace hook printing the systems of each trace the decision
    checks, from the decision's own table."""
    (table,) = tables
    p = table.params
    entry = {"trace": T.to_json_dict(),
             "balance": build_balance_system(T, p, table).to_json_dict(),
             "pumping_rows": [list(r) for r in
                              build_pumping_system(T, p, table)]}
    print(json.dumps(entry, sort_keys=True))


def _dump_equiv(T, tables) -> None:
    """on_trace hook printing the negation branches of each checked
    trace, from the decision's own tables."""
    t1, t2 = tables
    entry = {"trace": T.to_json_dict(),
             "branches": [b.to_json_dict() for b in
                          build_psi_branches(T, t1.params, t2.params,
                                             tables)]}
    print(json.dumps(entry, sort_keys=True))


def _validate_finiteness_certificate(cert, p: ParamList) -> Word:
    """Check an infinite certificate by counting; return its n = 1 word.

    Soundness: comp splices every copy of a cycle at the first occurrence
    of its root, which no copy moves, so comp is defined at every
    x + (n-1)*y >= 1 once it is at n = 1. Each copy of cyc adds cyc[1:]
    after the fixed start vertex, and with dimension >= p.max_len each
    occurrence is told by the vertex it ends at, so counts and length are
    affine in n. witness_family re-checks the members at n = 1 and 2, so
    the count differences vanish there, hence at every n; the length
    grows with n, so the members are infinitely many.
    """
    if not len(cert.x) == len(cert.y) == len(cert.trace.cycles):
        raise WitnessError("certificate needs one x and one y entry per cycle")
    if any(v < 1 for v in cert.x) or any(v < 0 for v in cert.y):
        raise WitnessError("certificate needs x >= 1 and y >= 0")
    g = cert.trace.graph
    if g.alphabet != p.alphabet or g.dim < p.max_len:
        raise WitnessError("the trace's graph does not fit the list")
    first = witness_family(cert, p, 1)
    if len(witness_family(cert, p, 2)) <= len(first):
        raise WitnessError("the pumped word does not grow")
    return first


def _report_not_infinite(p: ParamList, verdict, ms: float,
                         as_json: bool) -> int:
    """Print a finite or unknown verdict and return its exit code."""
    if as_json:
        print(json.dumps(verdict.to_json_dict(ms), sort_keys=True))
    elif verdict.verdict == "finite":
        print(f"finite (N={p.max_len}, {verdict.reason})")
    else:
        print(f"unknown ({verdict.cap})")
    return EXIT_FALSE if verdict.verdict == "finite" else EXIT_UNKNOWN


def _cmd_finite(args) -> int:
    alphabet = _parse_alphabet(args.alphabet)
    p = _parse_words(alphabet, args.words)
    on_trace = _dump_finite if args.dump_systems else None
    verdict, ms = timed(decide_finiteness, p, _caps_from(args),
                        on_trace=on_trace)
    if verdict.verdict != "infinite":
        return _report_not_infinite(p, verdict, ms, args.json)
    cert = verdict.certificate
    sample = _validate_finiteness_certificate(cert, p)
    if args.json:
        print(json.dumps(verdict.to_json_dict(ms), sort_keys=True))
        return EXIT_TRUE
    g = cert.trace.graph
    print("infinite")
    print(f"  trace path:  {_fmt_walk(g, cert.trace.path)}")
    for cyc in cert.trace.cycles:
        print(f"  trace cycle: {_fmt_walk(g, cyc)}")
    print(f"  balance x: {cert.x}")
    print(f"  pumping y: {cert.y}")
    print(f"  example member: {word_to_str(sample)!r}")
    return EXIT_TRUE


def _cmd_equiv(args) -> int:
    alphabet = _parse_alphabet(args.alphabet)
    p1 = _parse_words(alphabet, args.list1)
    p2 = _parse_words(alphabet, args.list2)
    on_trace = _dump_equiv if args.dump_systems else None
    verdict, ms = timed(decide_equivalence, p1, p2, _caps_from(args),
                        on_trace=on_trace)
    if args.json:
        print(json.dumps(verdict.to_json_dict(ms), sort_keys=True))
    elif verdict.verdict == "equal":
        print("equal")
    elif verdict.verdict == "not_equal":
        word = word_to_str(verdict.witness)
        print(f"not equal (witness {word!r}, member of list "
              f"{verdict.member_of} only)")
    else:
        print(f"unknown ({verdict.cap})")
    return {"equal": EXIT_TRUE, "not_equal": EXIT_FALSE,
            "unknown": EXIT_UNKNOWN}[verdict.verdict]


def _cmd_member(args) -> int:
    alphabet = _parse_alphabet(args.alphabet)
    p = _parse_words(alphabet, args.words)
    w = word_from_str(args.word)
    occ, ms = timed(occ_vector, w, p)
    member = len(set(occ)) == 1
    if args.json:
        payload = {"verdict": "member" if member else "non_member",
                   "certificate": {"counts": list(occ)},
                   "stats": {"traces_checked": 0, "elapsed_ms": ms}}
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"{'member' if member else 'non-member'} (counts {occ})")
    return EXIT_TRUE if member else EXIT_FALSE


def _cmd_witness(args) -> int:
    alphabet = _parse_alphabet(args.alphabet)
    p = _parse_words(alphabet, args.words)
    verdict, ms = timed(decide_finiteness, p, _caps_from(args))
    if verdict.verdict != "infinite":
        return _report_not_infinite(p, verdict, ms, args.json)
    _validate_finiteness_certificate(verdict.certificate, p)
    word = witness_family(verdict.certificate, p, args.n)
    if args.json:
        payload = {"verdict": "infinite",
                   "certificate": {"witness_word": word_to_str(word),
                                   "n": args.n},
                   "stats": {"traces_checked": verdict.traces_checked,
                             "elapsed_ms": ms}}
        print(json.dumps(payload, sort_keys=True))
    else:
        print(word_to_str(word))
    return EXIT_TRUE


def _cmd_enumerate(args) -> int:
    alphabet = _parse_alphabet(args.alphabet)
    p = _parse_words(alphabet, args.words)
    if args.census:
        sys.stdout.write(census(p, args.maxlen, budget=args.budget).to_csv())
    else:
        for w in enumerate_members(p, args.maxlen, budget=args.budget):
            print(word_to_str(w))
    return EXIT_TRUE


def _cmd_graph(args) -> int:
    alphabet = _parse_alphabet(args.alphabet)
    if args.dim < 1:
        raise ValueError("--dim must be >= 1")
    g = build(alphabet, args.dim, max_vertices=args.max_vertices)
    path, cycles = (), ()
    if args.word is not None:
        word = word_from_str(args.word)
        if len(word) < g.dim:
            raise ValueError(
                f"--word must be at least {g.dim} symbols long")
        walk = walk_of_word(g, word[:g.dim], word[g.dim:])
        d = dec(g, walk)
        path, cycles = d.path, d.cycles
    if args.dot:
        print(to_dot(g, path, cycles))
        return EXIT_TRUE
    symbols = ",".join(alphabet)
    print(f"D^{g.dim} over {{{symbols}}}: {g.vertex_count} vertices, "
          f"{g.edge_count} edges")
    if args.word is not None:
        print(f"  path:   {_fmt_walk(g, path)}")
        for cyc in cycles:
            print(f"  cycle:  {_fmt_walk(g, cyc)}")
    return EXIT_TRUE


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (DimensionCapError, BudgetExceededError, WitnessError) as e:
        print(f"unknown ({e})", file=sys.stderr)
        return EXIT_UNKNOWN


def main(argv=None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
