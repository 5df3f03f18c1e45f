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
