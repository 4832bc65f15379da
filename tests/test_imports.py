"""Every name imported by a module of the package or of its tests is used.

An import statement whose names are there to be re-exported carries
`# noqa: F401` on one of its lines and is exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "a2match").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def unused_imports(path):
    """(line, name) of every name `path` imports and never reads."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    tree = ast.parse(text, filename=str(path))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if any("noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                name = alias.asname or alias.name.split(".")[0]
                imported.append((alias.lineno, name))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


def test_scan_covers_package_and_tests():
    names = {path.name for path in MODULES}
    assert {"autodiff.py", "network.py", "test_imports.py"} <= names


def test_scan_finds_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import os\nimport sys\nfrom json import dumps  # noqa: F401\n"
                      "from pathlib import (\n    Path,\n    PurePath,\n)\n"
                      "from os import (  # noqa: F401\n    sep,\n)\n"
                      "print(sys.argv, Path)\n", encoding="utf-8")
    assert unused_imports(module) == [(1, "os"), (6, "PurePath")]


def test_no_unused_imports():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in MODULES for line, name in unused_imports(path)]
    assert not found, "imported but never used:\n" + "\n".join(found)
