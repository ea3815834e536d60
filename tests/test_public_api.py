"""Every public function of the package has a caller outside the tests.

A function in `bisphere.__all__` must be called somewhere in src/bisphere
(outside its own body), in bench/*.py or in a Python block of the
README. A function only the tests call belongs in `bisphere.oracle` or in
the tests. Classes and constants are exempt.
"""

import ast
import inspect
from pathlib import Path

import bisphere

ROOT = Path(__file__).resolve().parents[1]

# public functions that keep no caller outside the tests, each with its reason
UNCALLED = {
    "h_decomposition": "acceptance criterion 7: the singular-mode weights it returns "
    "are an advertised result, checked by tests/test_acceptance.py",
}


def _sources() -> list[str]:
    """The package and benchmark modules, and the README's Python blocks."""
    files = [*sorted((ROOT / "src" / "bisphere").glob("*.py")),
             *sorted((ROOT / "bench").glob("*.py"))]
    texts = [p.read_text(encoding="utf-8") for p in files]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    texts += [b.split("```", 1)[0] for b in readme.split("```python\n")[1:]]
    return texts


def _called_names(source: str) -> set[str]:
    """Names called as f(...) or obj.f(...) in source, not counting a function calling itself."""
    called = set()

    def visit(node, inside: str | None) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = node.name
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name is not None and name != inside:
                called.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(source), None)
    return called


def test_every_public_function_has_a_caller():
    called = set().union(*(_called_names(s) for s in _sources()))
    functions = [n for n in bisphere.__all__ if inspect.isfunction(getattr(bisphere, n))]
    assert "potential_field" in functions and "to_bispherical" in functions
    uncalled = sorted(n for n in functions if n not in called)
    assert uncalled == sorted(UNCALLED), (
        f"public functions with no caller outside the tests: {uncalled}; "
        f"allowed: {sorted(UNCALLED)}"
    )
