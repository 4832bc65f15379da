"""Static scans of the package and its tests.

Every name imported by a module of the package or of its tests is used. An
import statement whose names are there to be re-exported carries
`# noqa: F401` on one of its lines and is exempt.

No module of the package but `autodiff.py` touches the tape's internals:
ops written elsewhere go through `autodiff._make`.

Only `network.py`, `pipeline.py` and `synth.py` read a scene's `query_pose`,
and `network.py` reads it once.

Only `synth.py` reads `MIN_POINTS` and `MAX_POINTS`: the scene's count rule
is stated once, by `ScenePair`.

Every exception class the package defines is named in one of its `except`
clauses: rejected input raises `InvalidConfig`, which `cli.main` reports,
and misuse raises `ValueError`, so a class that nothing catches tells
nothing apart.
"""

import ast
import builtins
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "a2match").glob("*.py"))
MODULES = sorted([*PACKAGE, *(ROOT / "tests").glob("*.py")])
TAPE_INTERNALS = {"_TAPES", "_active_tape", "_records", "_tape_stack", "_wrap"}


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


def names_read(path, names):
    """(line, name) of every attribute or name in `names` that `path` reads
    or imports."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in names:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.Name) and node.id in names:
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.ImportFrom):
            found += [(node.lineno, a.name) for a in node.names if a.name in names]
    return sorted(found)


def test_tape_scan_finds_internals(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("from . import autodiff as ad\nfrom .autodiff import _tape_stack\n"
                      "tape = ad._active_tape()\nout = ad.Tensor._wrap(1, True)\n"
                      "ad._make(out, (), None)\n", encoding="utf-8")
    assert names_read(module, TAPE_INTERNALS) == [(2, "_tape_stack"), (3, "_active_tape"),
                                           (4, "_wrap")]


def test_only_autodiff_touches_tape_internals():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in PACKAGE if path.name != "autodiff.py"
             for line, name in names_read(path, TAPE_INTERNALS)]
    assert not found, "tape internals read outside autodiff.py:\n" + "\n".join(found)


def query_pose_reads(path):
    """Lines on which `path` reads an attribute named `query_pose`."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "query_pose")


def test_only_the_network_inputs_read_the_query_pose():
    # The query pose is ground truth. Besides the scene generator and the
    # pipeline's error report, only `network.scene_inputs` may read it: the
    # 3D input frame is chosen there once, and everything else takes its
    # bearings from there.
    readers = {path.name: query_pose_reads(path) for path in PACKAGE}
    assert {name for name, lines in readers.items() if lines} <= {
        "network.py", "pipeline.py", "synth.py"}
    assert len(readers["network.py"]) == 1


def test_only_synth_reads_the_count_bounds():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in PACKAGE if path.name != "synth.py"
             for line, name in names_read(path, {"MIN_POINTS", "MAX_POINTS"})]
    assert not found, "count bounds read outside synth.py:\n" + "\n".join(found)


def _name(node):
    """The name an expression ends in (`x` for `x` and `a.x`), else None."""
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def exception_classes(paths):
    """Names of the classes the modules at `paths` define that derive from a
    builtin exception or from another such class of theirs."""
    classes = [node for path in paths
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.ClassDef)]

    def is_exception(name):
        builtin = getattr(builtins, name or "", None)
        return name in found or isinstance(builtin, type) and issubclass(builtin, BaseException)

    found = set()
    while True:
        more = {c.name for c in classes if any(is_exception(_name(b)) for b in c.bases)}
        if more == found:
            return found
        found = more


def caught_names(paths):
    """Names of the exceptions that the `except` clauses of `paths` name."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                names |= {_name(t) for t in types}
    return names


def test_exception_scan_finds_classes_and_handlers(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import json\n\n\nclass B(A):\n    pass\n\n\nclass A(ValueError):\n"
                      "    pass\n\n\nclass D(object):\n    pass\n\n\ntry:\n    pass\n"
                      "except (A, OSError):\n    pass\nexcept json.JSONDecodeError:\n    pass\n",
                      encoding="utf-8")
    assert exception_classes([module]) == {"A", "B"}
    assert caught_names([module]) == {"A", "OSError", "JSONDecodeError"}


def test_every_exception_class_is_caught_in_the_package():
    uncaught = sorted(exception_classes(PACKAGE) - caught_names(PACKAGE))
    assert not uncaught, "exception classes no except clause names: " + ", ".join(uncaught)
