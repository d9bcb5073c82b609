"""The reach census allowlist stays honest without running the census.

``python tools/reach.py`` runs every command and takes minutes; these
checks read only the source: each allowlist entry names a function that
exists in ``src/repro`` and gives a reason, and each entry kept for the
end-to-end benchmark names something that benchmark looks up.
"""

from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
E2E = ROOT / "benchmarks" / "e2e"


def _load_reach():
    spec = importlib.util.spec_from_file_location("reach", ROOT / "tools" / "reach.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


reach = _load_reach()


def _e2e_targets() -> set[str]:
    """Every ``module:qualname`` string in ``layers.py``'s ``TARGETS``."""
    tree = ast.parse((E2E / "layers.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", "") == "TARGETS":
            return {
                c.value for c in ast.walk(node.value)
                if isinstance(c, ast.Constant) and isinstance(c.value, str) and ":" in c.value
            }
    raise AssertionError("layers.py defines no TARGETS")


def _child_names() -> set[str]:
    """Every name ``child.py`` imports or reads as an attribute."""
    names = set()
    for node in ast.walk(ast.parse((E2E / "child.py").read_text())):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


@pytest.fixture(scope="module")
def functions():
    return reach.functions()


@pytest.mark.parametrize("name", sorted(reach.ALLOWLIST))
def test_entry_names_a_counted_function_and_gives_a_reason(name, functions):
    assert name in functions, f"{name} is not a counted function in src/repro"
    assert reach.ALLOWLIST[name].strip()


def test_e2e_entries_name_what_the_benchmark_looks_up():
    targets, child = _e2e_targets(), _child_names()
    for name, reason in reach.ALLOWLIST.items():
        if reason == reach.E2E:
            leaf = name.split(":")[1].split(".")[-1]
            assert name in targets or leaf in child, name


def test_counting_rules_skip_dunders_and_declarations(functions):
    assert "repro.disksim.request:IORequest.__eq__" not in functions
    # a must-override base-class method that only raises
    assert "repro.core.layouts:Layout.data_cell" not in functions
    assert "repro.core.layouts:Layout.read_sources" in functions
