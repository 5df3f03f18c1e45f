import ast
from pathlib import Path

import pego
from pego import errors

# The only import inside a function: ``entry`` must cap the thread pools
# before ``cli`` loads numpy.
KEPT = {("__init__.py", "entry", "from . import cli")}


def test_function_local_imports_are_the_one_kept():
    found = set()
    for path in sorted(Path(pego.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    if isinstance(node, (ast.Import, ast.ImportFrom)):
                        found.add((path.name, fn.name, ast.unparse(node)))
    assert found == KEPT


def _nodes(tree):
    """Every node under ``tree`` with the name of its enclosing function,
    None at module level."""
    stack = [(tree, None)]
    while stack:
        node, function = stack.pop()
        for child in ast.iter_child_nodes(node):
            yield child, function
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
            stack.append((child, inner))


def _sources():
    for path in sorted(Path(pego.__file__).parent.glob("*.py")):
        yield path.name, ast.parse(path.read_text())


def test_parameter_names_are_spelled_only_in_vit():
    # ``vit.named_params`` is the one list of names: no other module
    # formats an adapter or block tensor name, in a string constant or an
    # f-string part.
    found = [
        (name, fn, node.value)
        for name, tree in _sources()
        if name != "vit.py"
        for node, fn in _nodes(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and (".lora." in node.value or "blocks." in node.value)
    ]
    assert found == []


def _is_file_write(node):
    """A write-mode ``open(`` call, ``write_text`` or ``write_bytes``."""
    if not isinstance(node, ast.Call):
        return False
    if isinstance(node.func, ast.Name) and node.func.id == "open":
        mode = node.args[1] if len(node.args) > 1 else next(
            (k.value for k in node.keywords if k.arg == "mode"), ast.Constant("r")
        )
        return not (isinstance(mode, ast.Constant) and set(mode.value).isdisjoint("wax+"))
    return isinstance(node.func, ast.Attribute) and node.func.attr in ("write_text", "write_bytes")


def test_files_are_written_only_by_the_atomic_writer():
    found = [(name, fn) for name, tree in _sources() for node, fn in _nodes(tree) if _is_file_write(node)]
    assert found == [("checkpoint.py", "atomic_write")]


ERROR_CLASSES = {name for name, obj in vars(errors).items() if isinstance(obj, type) and issubclass(obj, Exception)}


def test_only_the_command_line_maps_errors_prints_and_exits():
    # One handler turns every package error into its class's exit code, and
    # library calls print nothing: print( and sys.exit( belong to the
    # command line and the console script.
    handlers, output = [], set()
    for name, tree in _sources():
        for node, fn in _nodes(tree):
            if name == "cli.py" and isinstance(node, ast.ExceptHandler) and node.type is not None:
                named = {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node.type)}
                if named & ERROR_CLASSES:
                    handlers.append((fn, ast.unparse(node.type)))
            if isinstance(node, ast.Call) and ast.unparse(node.func) in ("print", "sys.exit"):
                output.add(name if name == "cli.py" else (name, fn))
    assert handlers == [("main", "PegoError")]
    assert output == {"cli.py", ("__init__.py", "entry")}


def test_only_node_and_no_grad_read_the_grad_mode():
    # An op computes alike with or without a tape: ``_node`` alone decides
    # what is recorded, and ``no_grad`` alone switches the mode.
    tree = ast.parse((Path(pego.__file__).parent / "autograd.py").read_text())
    readers = {
        fn
        for node, fn in _nodes(tree)
        if isinstance(node, ast.Name) and node.id == "_grad_mode" and isinstance(node.ctx, ast.Load)
    }
    assert readers == {"_node", "no_grad"}


def test_every_public_autograd_name_is_used_by_the_package():
    # No engine op that only tests call: each public top-level function
    # and class of autograd is referenced in the package outside its own
    # definition, through the module (``ag.name``) or an import of it.
    sources = dict(_sources())
    used = set()  # (name, line in autograd.py, or None elsewhere)
    for name, tree in sources.items():
        aliases = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
            for alias in node.names
            if alias.name == "autograd"
        }
        for node in ast.walk(tree):
            if name == "autograd.py" and isinstance(node, ast.Name):
                used.add((node.id, node.lineno))
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
                used.add((node.attr, None))
            elif isinstance(node, ast.ImportFrom) and node.module == "autograd":
                used.update((alias.name, None) for alias in node.names)
    public = [
        node
        for node in sources["autograd.py"].body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]
    unused = [
        d.name
        for d in public
        if not any(n == d.name and not (line and d.lineno <= line <= d.end_lineno) for n, line in used)
    ]
    assert len(public) > 15 and unused == []
