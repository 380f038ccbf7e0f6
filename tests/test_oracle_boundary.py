"""Reference implementations stay out of the installed package.

The oracles that pin the fast paths live in ``tests/oracles.py``, used only
by the equivalence tests and the speedup benches.  This test fails if one
drifts back into ``src/repro`` — defined there, imported there, or named as
an attribute there — so production code cannot start depending on a
reference path again.
"""

from __future__ import annotations

import ast
from pathlib import Path

import oracles

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
ORACLE_NAMES = {"ReferenceEnsembleDynamics", "_ReplicaIndexSet"}


def _is_oracle(name: str) -> bool:
    return name in ORACLE_NAMES or name.endswith("_reference")


def _oracle_uses(tree: ast.AST) -> list[tuple[int, str]]:
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name.rsplit(".", 1)[-1] for alias in node.names]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        uses.extend((node.lineno, name) for name in names if _is_oracle(name))
    return uses


def test_no_module_under_src_defines_or_imports_an_oracle():
    modules = sorted(SRC.rglob("*.py"))
    assert modules, f"no modules found under {SRC}"
    offenders = [
        f"{path.relative_to(SRC.parent)}:{line}: {name}"
        for path in modules
        for line, name in _oracle_uses(ast.parse(path.read_text(), str(path)))
    ]
    assert not offenders, "oracles belong in tests/oracles.py:\n" + "\n".join(
        offenders
    )


def test_oracles_module_holds_every_reference():
    defined = {name for name in vars(oracles) if _is_oracle(name)}
    assert defined >= ORACLE_NAMES | {
        "_label_clusters_reference",
        "_estimate_radius_tail_reference",
        "_monochromatic_radius_map_reference",
        "_almost_monochromatic_radius_map_reference",
    }
