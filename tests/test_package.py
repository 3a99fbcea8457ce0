"""Package hygiene: the public names resolve, no module imports a name
it does not use, and start-up loads no module it can do without."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import signconj

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "signconj").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))


def test_every_public_name_resolves():
    missing = [name for name in signconj.__all__ if not hasattr(signconj, name)]
    assert missing == []


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that nothing else reads; a name
    listed in `__all__` counts as read, since that is how a package
    re-exports what it imports."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_scan_catches_a_stale_import():
    source = "from fractions import Fraction\nimport math\n\nprint(math.pi)\n"
    assert unused_imports(source) == ["line 1: Fraction"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_cli_import_leaves_out_modules_that_slow_start_up():
    # the fork helper in signconj.parts is hand-rolled and names SIGKILL as
    # 9 so that starting the command loads none of these
    heavy = ["signal", "multiprocessing", "concurrent.futures", "subprocess", "pickle"]
    code = f"import signconj.cli, sys; print([m for m in {heavy!r} if m in sys.modules])"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, timeout=60)
    assert (done.returncode, done.stderr, done.stdout) == (0, b"", b"[]\n")
