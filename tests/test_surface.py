"""The package's public surface: wordmix.__all__, what the top level
exposes, and the names the benchmark and the README read from it."""

import ast
import importlib.util
import pkgutil
import re
from pathlib import Path

import wordmix

from conftest import plist

ROOT = Path(__file__).resolve().parents[1]

PUBLIC = {
    # words and occurrence counts
    "Alphabet", "ParamList", "Word", "word_from_str", "word_to_str",
    "occ_vector", "is_member",
    # decisions, verdicts and certificates
    "Caps", "decide_finiteness", "decide_equivalence", "witness_family",
    "FinitenessVerdict", "FinitenessCertificate", "EquivalenceVerdict",
    # traces, de Bruijn graphs, dec and comp
    "OrderedTrace", "enumerate_traces", "is_trace", "DeBruijnGraph",
    "build", "walk_occ", "dec", "comp",
    # the trace systems and their solver
    "LinearSystem", "solve_system", "build_balance_system",
    "build_pumping_system", "build_psi_branches",
    # the brute-force oracle
    "enumerate_members", "census",
    # errors a caller handles
    "WitnessError", "BudgetExceededError", "CapExceededError",
    "DimensionCapError", "NotATraceError",
}


def _top_level_names(tree: ast.AST) -> set[str]:
    """Names read as wordmix.<name> or imported with from wordmix import."""
    names = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "wordmix"
                and not node.attr.startswith("__")):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module == "wordmix":
            names.update(alias.name for alias in node.names)
    return names


def test_all_is_the_public_surface():
    assert len(wordmix.__all__) == len(PUBLIC) == 34
    assert set(wordmix.__all__) == PUBLIC
    submodules = {m.name for m in pkgutil.iter_modules(wordmix.__path__)}
    public = {n for n in dir(wordmix) if not n.startswith("_")}
    assert set(wordmix.__all__) <= public
    assert public - set(wordmix.__all__) <= submodules
    assert wordmix.__version__


def test_benchmark_reads_only_public_names():
    used = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        used |= _top_level_names(ast.parse(path.read_text()))
    assert used
    assert used <= set(wordmix.__all__), used - set(wordmix.__all__)


def test_readme_library_example_imports_only_public_names():
    readme = (ROOT / "README.md").read_text()
    section = readme[readme.index("## Library\n"):]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    used = _top_level_names(ast.parse(code))
    assert used
    assert used <= set(wordmix.__all__), used - set(wordmix.__all__)


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_reached():
    """The benchmark's tracer wraps names in the library's namespaces and
    books each call to a span. A refactor that stops calling one of them
    would leave its per-layer metric at 0; so one finiteness decision
    that streams traces up to a certificate and one equivalence decision
    that separates by a branch must reach every span. Exempt: walk_occ,
    which decisions no longer call (they read OccTable sums), and
    linarith's build, which shares its span name with decide's."""
    tracer_mod = _load_tracer()
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        fin = wordmix.decide_finiteness(plist("ab", "ab", "ba", "a"))
        eq = wordmix.decide_equivalence(plist("ab", "ab", "ba"),
                                        plist("ab", "aa", "bb"))
    finally:
        tracer.restore()
    assert fin.verdict == "infinite" and fin.traces_checked > 1
    assert eq.verdict == "not_equal" and eq.traces_checked > 0
    reached = {span[0] for span in tracer.spans}
    expected = {name for _, _, name in tracer_mod.TARGETS}
    assert reached == expected - {"debruijn.walk_occ"}


def _loaded_names(node: ast.AST) -> set[str]:
    """Names node reads: plain names and attribute names."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def test_library_keeps_no_test_only_helpers():
    """Every top-level function and class of the library is public (in
    wordmix.__all__), is the console entry point cli.main, or is read by
    name somewhere in the library outside its own definition. A helper
    only the tests call belongs in the tests."""
    statements = []  # (module, top-level statement, names it reads)
    for path in sorted((ROOT / "src" / "wordmix").glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            statements.append((path.stem, stmt, _loaded_names(stmt)))
    unused = []
    for module, stmt, _ in statements:
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
            continue
        name = stmt.name
        if name in wordmix.__all__ or (module, name) == ("cli", "main"):
            continue
        if not any(name in names for _, other, names in statements
                   if other is not stmt):
            unused.append(f"{module}.{name}")
    assert unused == []
