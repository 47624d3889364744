"""Source layout rules that no unit test of behaviour would catch."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "desklm"

# (module, function) pairs allowed to import inside their body.  model and
# trainer import mup, so mup.coordinate_check cannot import them at the top;
# it stays in mup because callers, the benchmark's tracing among them, find
# it as mup.coordinate_check.
ALLOWED = {("mup", "coordinate_check")}


def function_level_imports():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            if (path.stem, fn.name) in ALLOWED:
                continue
            for node in ast.walk(fn):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    found.append(f"{path.name}:{node.lineno} in {fn.name}")
    return found


def test_no_function_level_imports():
    assert function_level_imports() == []
