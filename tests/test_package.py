"""The package's public surface, and no dead code in its modules."""

import ast
import doctest
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import maskit

_README = Path(__file__).resolve().parent.parent / "README.md"
_MODULES = sorted(p for p in Path(maskit.__file__).parent.glob("*.py") if p.name != "__init__.py")


def test_every_exported_name_resolves():
    missing = [name for name in maskit.__all__ if not hasattr(maskit, name)]
    assert missing == []


def test_every_public_name_is_exported():
    # the submodules are bound by their own import, not re-exported
    bound = {
        name
        for name, value in vars(maskit).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(bound - set(maskit.__all__)) == []


def _referenced(tree) -> set[str]:
    """Every name the module reads, as a bare name or as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_no_unused_import_or_private_name():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in _MODULES}
    # a private name may serve a sibling module (from .raster import _x)
    imported = {
        alias.name
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    unused = []
    for name, tree in trees.items():
        used = _referenced(tree)
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                    continue
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{name}: import {alias.name}")
                continue
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, ast.Assign):
                defined = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                defined = [node.target.id]
            else:
                continue
            for d in defined:
                if d.startswith("_") and not d.startswith("__") and d not in used | imported:
                    unused.append(f"{name}: {d}")
    assert unused == []


def test_maskit_runs_without_mpmath():
    # mpmath is a test dependency only: with its import blocked, the package
    # imports and the all-roots solver runs
    src = str(Path(maskit.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys; sys.modules['mpmath'] = None\n"
        "import maskit\n"
        "roots = maskit.poly_roots(maskit.trace_polynomial(maskit.slope(1, 3)), 2)\n"
        "assert len(roots) == 3, roots\n"
    )
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def test_readme_examples_run():
    # The >>> lines of README's python fences, run without the closing fence,
    # which `python -m doctest README.md` would read as expected output.
    text = _README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, re.M | re.S)
    parser, runner = doctest.DocTestParser(), doctest.DocTestRunner()
    examples = 0
    for block in blocks:
        test = parser.get_doctest(block, {}, "README.md", str(_README), 0)
        examples += len(test.examples)
        assert runner.run(test).failed == 0
    assert examples > 0
