"""The library stays stdlib-only: no third-party import, no declared dependency."""
from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "kflag").glob("*.py"))


def _absolute_imports(path: Path) -> set[str]:
    """Top-level module names of the file's absolute imports."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            out.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module.split(".")[0])
    return out


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_imports_only_the_standard_library(path):
    assert _absolute_imports(path) <= set(sys.stdlib_module_names)


def test_project_declares_no_dependencies():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["dependencies"] == []


# modules the CLI imports only on the paths that use them: the fork pool,
# csv output, and the cache and --cartan digests
LAZY_IMPORTS = ("multiprocessing", "csv", "hashlib")


def test_cli_does_not_import_multiprocessing_at_startup():
    """Each module of ``LAZY_IMPORTS`` is imported where it is used, so a
    CLI process that takes none of those paths does not pay for it.
    ``tempfile`` is not checked: some installations' ``site`` imports it
    before kflag is loaded."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = f"import kflag.cli, sys; print([m for m in {LAZY_IMPORTS!r} if m in sys.modules])"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True,
    ).stdout
    assert out == "[]\n"
