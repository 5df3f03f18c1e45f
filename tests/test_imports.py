import ast
from pathlib import Path

import pego

# The only imports inside functions: ``entry`` must cap the thread pools
# before ``cli`` loads numpy, and ``vit`` imports ``adapters``, so
# ``adapters.merge_all`` cannot import ``vit`` at the top.
KEPT = {("__init__.py", "entry", "from . import cli"), ("adapters.py", "merge_all", "from . import vit")}


def test_function_local_imports_are_the_two_kept():
    found = set()
    for path in sorted(Path(pego.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    if isinstance(node, (ast.Import, ast.ImportFrom)):
                        found.add((path.name, fn.name, ast.unparse(node)))
    assert found == KEPT


def _file_writes(node, function=None):
    """The enclosing function's name for every write-mode ``open(`` call,
    ``write_text`` and ``write_bytes`` under ``node``."""
    for child in ast.iter_child_nodes(node):
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
        if isinstance(child, ast.Call):
            if isinstance(child.func, ast.Name) and child.func.id == "open":
                mode = child.args[1] if len(child.args) > 1 else next(
                    (k.value for k in child.keywords if k.arg == "mode"), ast.Constant("r")
                )
                if not (isinstance(mode, ast.Constant) and set(mode.value).isdisjoint("wax+")):
                    yield function
            elif isinstance(child.func, ast.Attribute) and child.func.attr in ("write_text", "write_bytes"):
                yield function
        yield from _file_writes(child, inner)


def test_files_are_written_only_by_the_atomic_writer():
    found = []
    for path in sorted(Path(pego.__file__).parent.glob("*.py")):
        found += [(path.name, fn) for fn in _file_writes(ast.parse(path.read_text()))]
    assert found == [("checkpoint.py", "atomic_write")]
