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
# cache and --cartan digests, the weight-lattice ring and the one-variable
# ring; dataclasses (with inspect), fractions (with decimal) and
# multiprocessing not at all
LAZY_IMPORTS = ("multiprocessing", "csv", "hashlib", "dataclasses", "inspect", "fractions",
                "decimal", "kflag.laurent", "kflag.univariate")

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


def test_only_verify_loads_the_one_variable_ring():
    """``describe``, ``constants``, ``parabolic-constants``, ``richardson``
    and ``line-coeffs`` read no one-variable table, so a process that runs
    all five has not loaded ``kflag.univariate``; ``verify`` loads it."""
    commands = [
        ["describe"],
        ["constants", "--u", "1", "--v", "2,1"],
        ["parabolic-constants", "--parabolic", "2", "--u", "1", "--v", "2,1"],
        ["richardson", "--u", "1", "--v", "1,2"],
        ["line-coeffs", "--v", "1,2", "--lambda", "1,-1"],
        ["verify", "--which", "signs"],
    ]
    code = (
        "import contextlib, io, sys, kflag.cli\n"
        f"for argv in {commands!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = kflag.cli.main([argv[0], '--type', 'A', '--rank', '2', *argv[1:]])\n"
        "    print(argv[0], code, 'kflag.univariate' in sys.modules)\n"
    )
    assert _loaded_in_subprocess(code).splitlines() == [
        "describe 0 False", "constants 0 False", "parabolic-constants 0 False",
        "richardson 0 False", "line-coeffs 0 False", "verify 0 True",
    ]


def test_every_public_name_resolves():
    """``kflag.LaurentPoly`` and ``kflag.UniPoly`` are loaded on first use;
    every other name of ``__all__`` resolves too, the model module's
    ``UniPoly`` and ``poly_divexact`` resolve on first use, and an unknown
    name is an AttributeError."""
    import kflag
    import kflag.model

    for name in kflag.__all__:
        assert getattr(kflag, name).__name__ == name
    from kflag.laurent import LaurentPoly
    from kflag.univariate import UniPoly, poly_divexact

    assert kflag.LaurentPoly is LaurentPoly
    assert kflag.UniPoly is kflag.model.UniPoly is UniPoly
    assert kflag.model.poly_divexact is poly_divexact
    with pytest.raises(AttributeError, match="no_such_name"):
        kflag.model.no_such_name  # noqa: B018
    with pytest.raises(AttributeError, match="no_such_name"):
        kflag.no_such_name  # noqa: B018
