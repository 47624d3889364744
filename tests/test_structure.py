"""Source layout rules that no unit test of behaviour would catch."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "desklm"

def function_level_imports():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    found.append(f"{path.name}:{node.lineno} in {fn.name}")
    return found


def test_no_function_level_imports():
    assert function_level_imports() == []


def import_graph():
    """``{module: modules it imports}`` inside src/desklm, from every
    ``from .x import`` and ``from . import x`` anywhere in a module.  A name
    taken ``from .`` that is not a module comes from ``__init__``."""
    modules = {path.stem for path in SRC.glob("*.py")}
    graph = {}
    for path in sorted(SRC.glob("*.py")):
        deps = graph[path.stem] = set()
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                deps.update([node.module] if node.module else
                            [a.name if a.name in modules else "__init__" for a in node.names])
    return graph


def import_cycles(graph):
    """Each cycle reachable in ``graph``, as the path that closes it."""
    cycles, done = [], set()

    def visit(m, path):
        if m in path:
            cycles.append(path[path.index(m):] + [m])
        elif m not in done:
            for d in sorted(graph.get(m, ())):
                visit(d, path + [m])
            done.add(m)

    for m in sorted(graph):
        visit(m, [])
    return cycles


def test_import_cycle_finder():
    assert import_cycles({"a": {"b"}, "b": {"c"}, "c": set()}) == []
    assert import_cycles({"a": {"b"}, "b": {"a"}}) == [["a", "b", "a"]]


def test_modules_import_in_one_direction():
    graph = import_graph()
    assert {"mup", "trainer", "model", "tensor"} <= graph.keys()
    assert "mup" not in graph["model"] | graph["trainer"]
    assert import_cycles(graph) == []


ROOT = SRC.parents[1]


def top_level_names(module):
    """Names ``src/desklm/<module>.py`` binds at top level by def, class or assignment."""
    names = set()
    for node in ast.parse((SRC / f"{module}.py").read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def imports_away_from_home():
    """Each ``from desklm.<m> import <n>`` in the repo's Python files (and
    ``from .<m> import <n>`` in src/desklm) whose module <m> does not bind <n>
    itself.  ``from desklm import <n>`` must name a module or ``__version__``."""
    modules = {path.stem for path in SRC.glob("*.py")}
    found = []
    for top in ("src", "tests", "demos", "tools", "bench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if not isinstance(node, ast.ImportFrom):
                    continue
                if node.level == 0 and (node.module or "").split(".")[0] == "desklm":
                    module = node.module.removeprefix("desklm").lstrip(".") or "__init__"
                elif node.level == 1 and path.is_relative_to(SRC):
                    module = node.module or "__init__"
                else:
                    continue
                home = top_level_names(module)
                found += [f"{path.relative_to(ROOT)}:{node.lineno} {a.name} from {module}"
                          for a in node.names if a.name not in home
                          and not (module == "__init__" and a.name in modules)]
    return found


def test_every_name_is_imported_from_its_home():
    assert imports_away_from_home() == []


def test_the_package_reexports_nothing():
    body = ast.parse((SRC / "__init__.py").read_text()).body
    assert not [n.lineno for n in body if isinstance(n, (ast.Import, ast.ImportFrom))]
    assert top_level_names("__init__") == {"__version__"}


def deeply_nested_functions(max_depth=2):
    """Functions defined inside a function that is itself nested."""
    found = []

    def visit(node, depth, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if depth + 1 > max_depth:
                    found.append(f"{path.name}:{child.lineno} {child.name}")
                visit(child, depth + 1, path)
            else:
                visit(child, depth, path)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), 0, path)
    return found


def test_functions_nest_at_most_two_deep():
    assert deeply_nested_functions() == []


def tape_ops():
    """Names of the tensor.py functions that record a tape node."""
    tree = ast.parse((SRC / "tensor.py").read_text())
    return {fn.name for fn in tree.body if isinstance(fn, ast.FunctionDef)
            and any(isinstance(n, ast.Call) and getattr(n.func, "id", None) == "_make"
                    for n in ast.walk(fn))}


def fd_checked_ops():
    """Names of the ``T.<op>`` calls inside the acceptance OP_CASES lambdas."""
    path = SRC.parents[1] / "tests" / "test_acceptance.py"
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "OP_CASES":
            return {n.attr for case in node.value.elts for n in ast.walk(case.elts[2])
                    if isinstance(n, ast.Attribute) and getattr(n.value, "id", None) == "T"}
    raise AssertionError("tests/test_acceptance.py has no OP_CASES list")


def test_every_tape_op_is_finite_difference_checked():
    assert "causal_attention" in tape_ops()
    assert sorted(tape_ops() - fd_checked_ops()) == []


def unread_parameters():
    """Function arguments, other than self/cls, that the body never names."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            a = fn.args
            args = a.posonlyargs + a.args + a.kwonlyargs + [x for x in (a.vararg, a.kwarg) if x]
            body = fn.body if isinstance(fn.body, list) else [fn.body]
            named = {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
            found += [f"{path.name}:{fn.lineno} {getattr(fn, 'name', 'lambda')}({arg.arg})"
                      for arg in args if arg.arg not in ("self", "cls", *named)]
    return found


def test_every_parameter_is_read():
    assert unread_parameters() == []


# (module, function) pairs allowed to write a file without io.atomic_open.
WRITES_ALLOWED = set()


def _write_mode(call: ast.Call):
    """The mode of an ``open(path, mode)`` or ``<path>.open(mode)`` call, or
    None when the call is neither."""
    func = call.func
    if isinstance(func, ast.Name) and func.id == "open":
        pos = 1
    elif isinstance(func, ast.Attribute) and func.attr == "open":
        pos = 0
    else:
        return None
    mode = call.args[pos] if len(call.args) > pos else next(
        (k.value for k in call.keywords if k.arg == "mode"), ast.Constant("r"))
    # a mode that is not a literal could be anything, so it counts as a write
    return mode.value if isinstance(mode, ast.Constant) else "w"


def writes_outside_io():
    """Calls in src/desklm outside io.py that open a file for writing."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "io":
            continue
        for fn in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(fn, ast.FunctionDef) or (path.stem, fn.name) in WRITES_ALLOWED:
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Call):
                    mode = _write_mode(node)
                    if mode is not None and set(mode) & set("wax+"):
                        found.append(f"{path.name}:{node.lineno} in {fn.name}")
    return found


def test_only_io_opens_files_for_writing():
    assert writes_outside_io() == []


def json_parses_outside_io():
    """``json.load`` and ``json.loads`` calls in src/desklm outside io.py,
    whose parse_json refuses NaN and Infinity and names the file."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "io":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("load", "loads")
                    and getattr(node.func.value, "id", None) == "json"):
                found.append(f"{path.name}:{node.lineno}")
    return found


def test_only_io_parses_json():
    assert json_parses_outside_io() == []
