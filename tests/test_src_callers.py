"""Every function of the package has a caller in the program or in the
benchmark, so that code only the tests call lives in `tests/`."""

import ast
import re
from collections import defaultdict
from pathlib import Path

import extcheck

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "extcheck"


def _uncalled() -> list[str]:
    """The module-level functions of `src/extcheck` whose name no module
    there loads or reads as an attribute, that the package does not export,
    that no file of `perfbench/*.py` names as a word, and that are not the
    one caller in `src` of a function the benchmark names (its tracer wraps
    such a function where another module binds it)."""
    defined, callers = set(), defaultdict(set)
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            is_def = isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef))
            if is_def:
                defined.add(top.name)
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    callers[node.id].add(top.name if is_def else None)
                elif isinstance(node, ast.Attribute):
                    callers[node.attr].add(top.name if is_def else None)
    bench = "\n".join(p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py")))
    named = set(re.findall(r"\w+", bench))
    sole = {next(iter(c)) for name, c in callers.items() if name in named and len(c) == 1}
    return sorted(defined - set(callers) - set(extcheck.__all__) - named - sole)


def test_every_src_function_has_a_caller():
    assert _uncalled() == []
