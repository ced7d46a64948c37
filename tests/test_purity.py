"""The mathematical core is pure stdlib and exact: no true division, no
float, no rational or decimal type, and no import from outside the
standard library and hfl.  The CLI is left out: it reports seconds."""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "hfl"
CORE = ("gf", "curve", "intmat", "lattice", "hermlat", "autgrp", "abelian", "errors")


def impurities(source: str):
    """(line, what) for every inexact or non-stdlib construct in source."""
    out = []
    for node in ast.walk(ast.parse(source)):
        line = getattr(node, "lineno", 0)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            out.append((line, "true division"))
        elif isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            out.append((line, f"float literal {node.value!r}"))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            out.append((line, "float() call"))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom):
                names = [] if node.level else [node.module]
            else:
                names = [alias.name for alias in node.names]
            for name in names:
                top = name.split(".")[0]
                if top in ("fractions", "decimal"):
                    out.append((line, f"import {name}"))
                elif top != "hfl" and top not in sys.stdlib_module_names:
                    out.append((line, f"non-stdlib import {name}"))
    return sorted(out)


@pytest.mark.parametrize("module", CORE)
def test_core_module_is_exact_and_stdlib(module):
    path = SRC / f"{module}.py"
    assert impurities(path.read_text()) == [], path


def test_lint_sees_each_impurity():
    source = """
import fractions
from decimal import Decimal
import numpy as np
from . import intmat
import itertools
x = 1 / 2
x /= 3
y = 0.5
z = float(7)
w = 7 // 2
"""
    assert impurities(source) == [
        (2, "import fractions"),
        (3, "import decimal"),
        (4, "non-stdlib import numpy"),
        (7, "true division"),
        (8, "true division"),
        (9, "float literal 0.5"),
        (10, "float() call"),
    ]
