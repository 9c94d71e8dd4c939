"""The package's public surface, and no dead code in its modules."""

import ast
import doctest
import importlib
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import maskit

_README = Path(__file__).resolve().parent.parent / "README.md"
_BENCH_CHILD = Path(__file__).resolve().parent.parent / "bench" / "child.py"
_MODULES = sorted(p for p in Path(maskit.__file__).parent.glob("*.py") if p.name != "__init__.py")


def test_every_exported_name_resolves():
    missing = [name for name in maskit.__all__ if not hasattr(maskit, name)]
    assert missing == []


def test_every_public_name_is_exported():
    # The names resolve on first access, so vars(maskit) starts empty: the
    # name -> module map must be __all__, each name defined at the top of its
    # home module, and dir() must list them before any is loaded.
    assert sorted(maskit._HOME) == maskit.__all__
    misplaced = []
    for name, home in maskit._HOME.items():
        path = Path(maskit.__file__).parent / f"{home}.py"
        if name not in _top_level_definitions(ast.parse(path.read_text(encoding="utf-8"))):
            misplaced.append(f"{home}.{name}")
    assert misplaced == []
    assert set(maskit.__all__) <= set(dir(maskit))
    # the submodules are bound by their own import, not re-exported
    for name in maskit.__all__:
        getattr(maskit, name)
    bound = {
        name
        for name, value in vars(maskit).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(bound - set(maskit.__all__)) == []


def _top_level_definitions(tree) -> set[str]:
    """The names a module's own def, class and assignment statements bind."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


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
        for d in sorted(_top_level_definitions(tree)):
            if d.startswith("_") and not d.startswith("__") and d not in used | imported:
                unused.append(f"{name}: {d}")
    assert unused == []


def test_every_package_name_the_benchmark_reads_exists():
    # bench/child.py wraps package functions in timing spans by rebinding them
    # on their modules (import maskit.cli as cli; cli.f = wrap(cli.f)).  Each
    # name it reads there must still exist, or the traced runs break.
    tree = ast.parse(_BENCH_CHILD.read_text(encoding="utf-8"))
    aliases = {
        alias.asname: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.asname
    }
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            owner = ast.unparse(node.value)
            module = aliases.get(owner, owner)
            if module.startswith("maskit."):
                read.add((module, node.attr))
    assert {m for m, _ in read} >= {f"maskit.{m}" for m in ("cli", "raster", "witness", "cusps")}
    missing = [f"{m}.{a}" for m, a in sorted(read) if not hasattr(importlib.import_module(m), a)]
    assert missing == []


def _run_fresh(code, cwd=None):
    """Run code in a fresh interpreter that imports this checkout's maskit."""
    src = str(Path(maskit.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=cwd, timeout=60, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


def test_maskit_runs_without_mpmath():
    # mpmath is a test dependency only: with its import blocked, the package
    # imports and the all-roots solver runs
    _run_fresh(
        "import sys; sys.modules['mpmath'] = None\n"
        "import maskit\n"
        "roots = maskit.poly_roots(maskit.trace_polynomial(maskit.slope(1, 3)), 2)\n"
        "assert len(roots) == 3, roots\n"
    )


def test_start_up_and_cusps_load_no_numpy():
    # numpy is imported where a batch runs: the package, the cusp table and
    # --help load none of it
    _run_fresh(
        "import sys\n"
        "import maskit\n"
        "import maskit.cli\n"
        "assert maskit.cli.main(['cusps', '--max-q', '4', '--out', '-']) == 0\n"
        "try:\n"
        "    maskit.cli.main(['--help'])\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
        "else:\n"
        "    raise AssertionError('--help did not exit')\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'numpy')\n"
        "assert loaded == [], loaded[:5]\n"
    )


def test_names_rebound_before_any_command_keep_their_binding(tmp_path):
    # maskit.cli binds its raster and witness names on first use; one that a
    # caller (the benchmark's tracer) rebinds first keeps the rebinding
    _run_fresh(
        "import maskit.cli as cli\n"
        "calls = []\n"
        "def rasterize_maskit(*args):\n"
        "    from maskit.raster import rasterize_maskit as real\n"
        "    calls.append('render')\n"
        "    return real(*args)\n"
        "def find_rectangle(*args):\n"
        "    from maskit.witness import find_rectangle as real\n"
        "    calls.append('find')\n"
        "    return real(*args)\n"
        "cli.rasterize_maskit = rasterize_maskit\n"
        "cli.find_rectangle = find_rectangle\n"
        "assert cli.main(['render-maskit', '--res', '4x3', '--out', 'r.ppm']) == 0\n"
        "assert cli.find_rectangle is find_rectangle\n"
        "cli.main(['witness', '--synthetic', '-k', '1', '--res', '4x3', '--no-timestamp'])\n"
        "assert calls == ['render', 'find'], calls\n",
        cwd=tmp_path,
    )


def test_rasters_load_no_multiprocessing(tmp_path):
    # Every raster runs in process: a render and an a-slice, at --workers 2,
    # import no multiprocessing module
    _run_fresh(
        "import sys\n"
        "import maskit.cli\n"
        "common = ['--res', '4x3', '--workers', '2', '--no-timestamp']\n"
        "assert maskit.cli.main(['render-maskit', '--out', 'r.ppm', *common]) == 0\n"
        "assert maskit.cli.main(['a-slice', '--z', '0', '4', '--out', 'a.ppm', '--json', 'a.json',"
        " *common]) == 0\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'multiprocessing')\n"
        "assert loaded == [], loaded\n",
        cwd=tmp_path,
    )


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
