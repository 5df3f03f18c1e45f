import ast
import re
from pathlib import Path

import pego
from pego import errors

# The only import inside a function: ``entry`` must pin the thread pools
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


PACKAGE = Path(pego.__file__).parent


def _sources(directory=PACKAGE):
    for path in sorted(directory.glob("*.py")):
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


def test_only_autograd_marks_a_tensor_as_needing_a_gradient():
    # ``differentiating`` marks a backward's leaves for its tape alone and
    # ``_node`` marks the tape's own outputs; no other code sets
    # ``requires_grad``, by assignment or as a keyword, so every forward
    # outside a backward records nothing.
    found = {
        (name, fn)
        for name, tree in _sources()
        for node, fn in _nodes(tree)
        if (isinstance(node, ast.Attribute) and node.attr == "requires_grad" and isinstance(node.ctx, ast.Store))
        or (isinstance(node, ast.keyword) and node.arg == "requires_grad")
    }
    assert found == {("autograd.py", "__init__"), ("autograd.py", "differentiating"), ("autograd.py", "_node")}


def _imported(node):
    """The package module an import statement reads from, by its file's
    stem (``__init__`` for the package itself), or None for another."""
    if node.level:  # within the package: ``from . import x``, ``from .x import y``
        return node.module or "__init__"
    if node.module == "pego":
        return "__init__"
    return node.module.removeprefix("pego.") if node.module.startswith("pego.") else None


def test_every_public_name_is_used_by_the_package_or_the_benchmark():
    # No src/ helper that only tests call: each public top-level function
    # and class of every package module is referenced outside its own
    # definition, by the package or perfbench/, through its module
    # (``ag.name``), an import of it, or by name in its own module.
    # ``trainer.canonical_dataset_spec`` is the one name only perfbench
    # and tests reach.
    package = {name.removesuffix(".py"): tree for name, tree in _sources()}
    benchmark = [(None, tree) for _, tree in _sources(PACKAGE.parent.parent / "perfbench")]
    used = set()  # (module, name, line in that module, or None elsewhere)
    for here, tree in [*package.items(), *benchmark]:
        aliases = {}  # local name -> module
        for node in ast.walk(tree):
            module = _imported(node) if isinstance(node, ast.ImportFrom) else None
            for alias in node.names if module else ():
                if module == "__init__" and alias.name in package:
                    aliases[alias.asname or alias.name] = alias.name
                else:
                    used.add((module, alias.name, None))
        for node in ast.walk(tree):
            if here and isinstance(node, ast.Name):
                used.add((here, node.id, node.lineno))
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
                used.add((aliases[node.value.id], node.attr, None))
    public = [
        (module, node)
        for module, tree in package.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]
    unused = [
        f"{module}.{d.name}"
        for module, d in public
        if not any(
            (m, n) == (module, d.name) and not (line and d.lineno <= line <= d.end_lineno) for m, n, line in used
        )
    ]
    assert len(public) > 60 and unused == []


def test_one_process_pool_and_one_thread_pool():
    # A grid's runs fork workers in ``machine.map_runs``, and a
    # whole-dataset no-grad forward forks a child per slice of its chunks
    # in ``machine.map_split``, through ``_fork_slice``, which nothing else
    # calls: the package has no other parallelism, and no threads.
    starters = ("ProcessPoolExecutor", "ThreadPoolExecutor", "Thread", "fork", "_fork_slice")
    found = sorted(
        (name, fn, called)
        for name, tree in _sources()
        for node, fn in _nodes(tree)
        if isinstance(node, ast.Call)
        and (called := getattr(node.func, "id", getattr(node.func, "attr", None))) in starters
    )
    assert found == [
        ("machine.py", "_fork_slice", "fork"),
        ("machine.py", "map_runs", "ProcessPoolExecutor"),
        ("machine.py", "map_split", "_fork_slice"),
    ]
    threaded = [path.name for path in sorted(PACKAGE.glob("*.py")) if re.search(r"threading|ThreadPool", path.read_text())]
    assert threaded == []


# What only ``machine`` may do: load the libraries that pin BLAS and the
# allocator or start pools, and read the CPUs or the environment.
MACHINE_MODULES = {"ctypes", "multiprocessing", "concurrent"}
MACHINE_OS_NAMES = {"sched_getaffinity", "cpu_count", "environ", "getenv", "putenv"}


def test_only_machine_decides_how_pego_uses_the_cpus_and_memory():
    # One module holds the BLAS and allocator pins, the thread budget and
    # both pools, and is the only one that runs a call when imported.
    # ``entry`` sets the BLAS variables itself, before numpy loads.
    found = []
    for name, tree in _sources():
        for node, fn in _nodes(tree):
            if isinstance(node, ast.Import):
                hit = any(a.name.partition(".")[0] in MACHINE_MODULES for a in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                root = node.module.partition(".")[0]
                hit = root in MACHINE_MODULES or (root == "os" and any(a.name in MACHINE_OS_NAMES for a in node.names))
            else:
                hit = isinstance(node, ast.Attribute) and ast.unparse(node.value) == "os" and node.attr in MACHINE_OS_NAMES
            if hit and name != "machine.py":
                found.append((name, fn, ast.unparse(node)))
        # A bare call among a module's statements runs on import; a script's
        # call under its ``__main__`` check does not.
        found += [
            (name, None, ast.unparse(stmt))
            for stmt in tree.body
            if name != "machine.py" and isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call)
        ]
    assert found == [("__init__.py", "entry", "os.environ")]


def test_one_function_takes_the_training_steps():
    # Pretraining and adapter training both drive ``trainer._steps``, the
    # one place that draws a batch, takes its gradient and updates by Adam.
    # Each call is a module-global lookup, so a wrapper bound there sees
    # every step.
    step_calls = ("make_batch", "gradcheck.backward", "adam_step")
    tree = ast.parse((PACKAGE / "trainer.py").read_text())
    found = sorted(
        (fn, called)
        for node, fn in _nodes(tree)
        if isinstance(node, ast.Call) and (called := ast.unparse(node.func)) in step_calls
    )
    assert found == sorted(("_steps", called) for called in step_calls)


def test_configs_check_themselves_and_only_the_dataset_is_validated_later():
    # A config checks its values in ``__post_init__``, once, as it is built.
    # ``DomainDataset`` holds mutable dicts and ``without`` may leave a single
    # domain, so its two builders call its ``validate`` instead.
    calls = sorted(
        (name, fn)
        for name, tree in _sources()
        for node, fn in _nodes(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "validate"
    )
    definers = [
        cls.name
        for _, tree in _sources()
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        and any(isinstance(f, ast.FunctionDef) and f.name == "validate" for f in cls.body)
    ]
    assert calls == [("checkpoint.py", "load_dataset"), ("data.py", "generate_dataset")]
    assert definers == ["DomainDataset"]
