"""Every module-level private function and class of the package is used.

A private helper (``_name``) that nothing references is dead code, and a
refactor that moves its work elsewhere can leave one behind silently.
This walks the syntax trees of ``src/namefinder/*.py`` with ``ast``: a
name counts as used when any module of the package reads it, as a plain
name or as an attribute.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "namefinder"


def unreferenced_private(sources):
    """(module, line, name) of each module-level private function or
    class that no source in ``sources`` (module name -> text) reads."""
    defined = []
    used = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")):
                defined.append((module, node.lineno, node.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return sorted(entry for entry in defined if entry[2] not in used)


def test_package_has_no_unreferenced_private_helper():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    assert {"estimator.py", "decoder.py", "__init__.py"} <= set(sources)
    assert unreferenced_private(sources) == []


def test_scan_sees_unreferenced_and_referenced_helpers():
    sources = {
        "a.py": ("def _dead():\n    pass\n\nclass _Used:\n    pass\n\n"
                 "def _by_attribute():\n    pass\n\ndef __dunder__():\n    pass\n\n"
                 "def public():\n    def _nested():\n        pass\n    return _Used\n"),
        "b.py": "import a\n\nVALUE = a._by_attribute()\n",
    }
    assert unreferenced_private(sources) == [("a.py", 1, "_dead")]
