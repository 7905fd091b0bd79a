"""Each public name of the package's modules has a caller in the package or the benchmarks.

A function, class, method or property that only the tests call is a
second way to do a job the package does otherwise; this keeps such names
from coming back.  A dunder method is not a public name, so it is not seen.
The engine carries Steenrod sums as bitmasks, so no module but
``steenrod`` names the ``SqSum`` record.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CALLERS = sorted((ROOT / "src" / "hcm").glob("*.py")) + sorted((ROOT / "benchmarks").rglob("*.py"))


def _mentions(node: ast.AST) -> Counter:
    """Names under ``node``: bare, as attributes, imported, or passed as a string
    argument, as ``getattr``-style probes name them."""
    out: Counter = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
        elif isinstance(n, ast.alias):
            out[n.name] += 1
        elif isinstance(n, ast.Call):
            out.update(a.value for a in n.args
                       if isinstance(a, ast.Constant) and isinstance(a.value, str))
    return out


def _public(body) -> list:
    """The public functions and classes of ``body``, and the public methods and
    properties of each class."""
    out = []
    for n in body:
        if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and not n.name.startswith("_"):
            out.append(n)
            if isinstance(n, ast.ClassDef):
                out += [m for m in n.body
                        if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")]
    return out


MODULES = sorted(p.stem for p in (ROOT / "src" / "hcm").glob("*.py") if p.stem != "__init__")

# Names kept without a caller in the package: the bounds' quoted-filtration
# check is a library self-check that no command runs, documented in README.
IDLE = {"bounds": ["exceptional_filtrations"]}


@pytest.mark.parametrize("module", MODULES)
def test_every_public_name_has_a_caller(module):
    tree = ast.parse((ROOT / "src" / "hcm" / f"{module}.py").read_text(encoding="utf-8"))
    public = _public(tree.body)
    assert public or module == "stems_data"  # stems_data holds only data
    seen: Counter = Counter()
    for path in CALLERS:
        seen.update(_mentions(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))))
    # a definition's own body, a recursive call say, does not count as a caller
    idle = [n.name for n in public if seen[n.name] <= _mentions(n)[n.name]]
    assert idle == IDLE.get(module, []), f"{module}: no caller outside the definition of {idle}"


@pytest.mark.parametrize("module", MODULES)
def test_only_steenrod_names_the_sum_record(module):
    # SqSum stays in steenrod, for the benchmark tracer's probes of product.
    tree = ast.parse((ROOT / "src" / "hcm" / f"{module}.py").read_text(encoding="utf-8"))
    assert module == "steenrod" or not _mentions(tree)["SqSum"]
