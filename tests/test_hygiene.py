"""Source hygiene: every name a module imports is used in that module,
every private module-level name is read somewhere in the package, and
the package imports nothing at run time beyond the standard library and
numpy.

The package ``__init__`` re-exports names on purpose and is exempt from
the unused-import check."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "delayctrl"
SOURCES = sorted(PACKAGE.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


def unused_imports(source: str) -> list:
    """Names bound by import statements that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_detects_an_unused_import():
    source = "import os\nfrom math import pi, tau\nprint(os.sep, tau)\n"
    assert unused_imports(source) == [(2, "pi")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def unread_private_names(sources: dict) -> list:
    """(module, line, name) of each underscore-prefixed module-level
    function, class or constant that no module of ``sources`` (module
    name -> source text) reads: as a loaded name, an attribute or an
    imported name."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                names = []
            defined += [(module, node.lineno, name) for name in names
                        if _private(name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return sorted(entry for entry in defined if entry[2] not in read)


def test_detects_an_unread_private_name():
    sources = {
        "a": "_USED = 1\n_UNUSED = 2\ndef _f():\n    return _USED\n"
             "class _C:\n    pass\n__all__ = []\n",
        "b": "from a import _C\n",
    }
    assert unread_private_names(sources) == [("a", 2, "_UNUSED"),
                                             ("a", 3, "_f")]


def test_no_unread_private_names():
    sources = {p.stem: p.read_text() for p in SOURCES}
    assert unread_private_names(sources) == []


def foreign_imports(source: str) -> list:
    """(line, module) of each module-level import that is neither of the
    standard library, nor numpy, nor relative to the package."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        found += [(node.lineno, module) for module in modules
                  if module.split(".")[0] not in sys.stdlib_module_names
                  and module.split(".")[0] != "numpy"]
    return found


def test_detects_a_foreign_import():
    source = ("import os.path\nimport numpy as np\nfrom . import model\n"
              "from scipy.integrate import quad\nimport numba, json\n")
    assert foreign_imports(source) == [(4, "scipy.integrate"), (5, "numba")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_stdlib_and_numpy(path):
    assert foreign_imports(path.read_text()) == []


def test_cli_run_loads_no_scipy(tmp_path):
    """A fresh interpreter that runs ``delayctrl example34`` in process has
    loaded no scipy module: scipy is a test dependency only."""
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "problem": {"selector": "example_3_4", "params": {"sigma0": 0.05}},
        "grid": {"dt": 0.05, "horizon": 1.0}}))
    script = (
        "import sys\n"
        "from delayctrl import cli\n"
        f"assert cli.main(['example34', '--config', {str(config)!r}, "
        f"'--out-dir', {str(tmp_path / 'out')!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
