"""Every module-level import is used, the command line imports no
hashing module, and the package parses as Python 3.11.

No linter ships with the project, so this walks the syntax trees of the
package, the tests, the demos and the tools with ``ast``.  The package's
``__init__.py`` is exempt: its imports are the public API.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXEMPT = {ROOT / "src" / "namefinder" / "__init__.py"}
FILES = sorted(path for pattern in ("src/namefinder/*.py", "tests/*.py", "demos/*.py",
                                    "tools/*.py")
               for path in ROOT.glob(pattern) if path not in EXEMPT)


def unused_imports(source):
    """Names bound by top-level imports that nothing in the module reads."""
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_files_are_found():
    names = {path.name for path in FILES}
    assert {"decoder.py", "test_imports.py", "train_and_decode.py"} <= names
    assert "__init__.py" not in names


@pytest.mark.parametrize("path", FILES, ids=lambda path: str(path.relative_to(ROOT)))
def test_no_unused_module_level_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_scan_sees_unused_and_used_names():
    source = ("import os\nimport os.path as osp\nfrom math import log, pi\n"
              "import sys\n\ndef f():\n    return log(sys.maxsize)\n")
    assert unused_imports(source) == [(1, "os"), (2, "osp"), (3, "pi")]


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "namefinder").glob("*.py")),
                         ids=lambda path: path.name)
def test_the_package_parses_as_python_3_11(path):
    # requires-python is >=3.11, the oldest grammar the package may use.
    # This checks the grammar only.
    ast.parse(path.read_text(encoding="utf-8"), feature_version=(3, 11))


def test_the_command_line_loads_no_hashing_module():
    # ``secrets`` pulls in ``hmac`` and ``hashlib``, milliseconds of every
    # command's start-up; a temporary file name needs none of them.
    code = ("import sys\nbefore = set(sys.modules)\nimport namefinder.cli\n"
            "print(sorted({'secrets', 'hashlib'} & (set(sys.modules) - before)))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True)
    assert result.stdout.strip() == "[]"
