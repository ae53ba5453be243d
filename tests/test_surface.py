"""The package's public surface: wordmix.__all__, what the top level
exposes, and the names the benchmark and the README read from it."""

import ast
import pkgutil
import re
from pathlib import Path

import wordmix

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
