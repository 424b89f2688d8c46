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


# modules the CLI imports only on the paths that use them: csv output, the
# cache and --cartan digests, and the weight-lattice ring; dataclasses (with
# inspect), fractions (with decimal) and multiprocessing not at all
LAZY_IMPORTS = ("multiprocessing", "csv", "hashlib", "dataclasses", "inspect", "fractions",
                "decimal", "kflag.laurent")

# what a whole integer command must still not have loaded when it is done
NEVER_IMPORTED = ("kflag.laurent", "dataclasses", "fractions", "multiprocessing")


def _loaded_in_subprocess(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True,
    ).stdout


def test_cli_startup_imports_only_what_it_runs():
    """Each module of ``LAZY_IMPORTS`` is imported where it is used, if at
    all, so a CLI process that takes none of those paths does not pay for
    it.  ``tempfile`` is not checked: some installations' ``site`` imports
    it before kflag is loaded."""
    code = f"import kflag.cli, sys; print([m for m in {LAZY_IMPORTS!r} if m in sys.modules])"
    assert _loaded_in_subprocess(code) == "[]\n"


def test_an_integer_command_never_loads_the_weight_lattice_ring():
    """A whole ``verify --which all --jobs 2`` run, sign, Richardson and line
    suites included, loads none of ``NEVER_IMPORTED``."""
    code = (
        "import contextlib, io, sys, kflag.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = kflag.cli.main(['verify', '--type', 'A', '--rank', '2', '--which', 'all',\n"
        "                           '--jobs', '2'])\n"
        f"print(code, [m for m in {NEVER_IMPORTED!r} if m in sys.modules])"
    )
    assert _loaded_in_subprocess(code) == "0 []\n"


def test_every_public_name_resolves():
    """``kflag.LaurentPoly`` is loaded on first use; every other name of
    ``__all__`` resolves too, and an unknown one is an AttributeError."""
    import kflag

    for name in kflag.__all__:
        assert getattr(kflag, name).__name__ == name
    from kflag.laurent import LaurentPoly

    assert kflag.LaurentPoly is LaurentPoly
    with pytest.raises(AttributeError, match="no_such_name"):
        kflag.no_such_name  # noqa: B018
