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
# cache and --cartan digests, the weight-lattice ring, the one-variable
# ring, the reports, the class tables and the cache file; dataclasses (with
# inspect), fractions (with decimal) and multiprocessing not at all
LAZY_IMPORTS = ("multiprocessing", "csv", "hashlib", "dataclasses", "inspect", "fractions",
                "decimal", "kflag.laurent", "kflag.univariate", "kflag.reports", "kflag.tables",
                "kflag.cache")

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


def test_each_command_compiles_only_the_modules_it_runs(tmp_path):
    """``describe`` and ``constants`` load none of ``kflag.reports``,
    ``kflag.tables`` and ``kflag.cache``; ``verify`` loads the reports and
    the tables but not the cache; a call that stores a missing cache file
    loads the cache and the tables it writes, and one that finds the file
    in place loads neither.  Each command runs in a fresh process."""
    lazy = ("kflag.reports", "kflag.tables", "kflag.cache")
    group = ["--type", "A", "--rank", "2"]
    cache = ["--cache-dir", str(tmp_path)]
    runs = [
        ["describe", *group],
        ["describe", *group, "--parabolic", "1"],
        ["constants", *group, "--u", "1", "--v", "2,1"],
        ["verify", *group, "--which", "signs"],
        ["constants", *group, "--u", "1", "--v", "2,1", *cache],
        ["constants", *group, "--u", "1", "--v", "2,1", *cache],
    ]
    loaded = []
    for argv in runs:
        code = (
            "import contextlib, io, sys, kflag.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = kflag.cli.main({argv!r})\n"
            f"print(code, [m for m in {lazy!r} if m in sys.modules])\n"
        )
        loaded.append(_loaded_in_subprocess(code).strip())
    assert loaded == [
        "0 []", "0 []", "0 []", "0 ['kflag.reports', 'kflag.tables']",
        "0 ['kflag.tables', 'kflag.cache']", "0 []",
    ]


def test_every_public_name_resolves():
    """``kflag.LaurentPoly`` and ``kflag.UniPoly`` are loaded on first use;
    every other name of ``__all__`` resolves too, the model module's
    ``UniPoly`` and ``poly_divexact`` resolve on first use, every name
    moved to ``kflag.tables``, ``kflag.reports`` or ``kflag.cache`` resolves
    from the module that held it, every method moved there is the moved
    function, and an unknown name is an AttributeError."""
    import kflag
    import kflag.cli
    import kflag.model
    import kflag.ring

    for name in kflag.__all__:
        assert getattr(kflag, name).__name__ == name
    from kflag import cache, reports, tables
    from kflag.laurent import LaurentPoly
    from kflag.model import SchubertModel
    from kflag.records import Deferred
    from kflag.ring import SchubertRing
    from kflag.univariate import UniPoly, poly_divexact

    assert kflag.LaurentPoly is LaurentPoly
    assert kflag.UniPoly is kflag.model.UniPoly is UniPoly
    assert kflag.model.poly_divexact is poly_divexact
    assert kflag.EquivClass is kflag.model.EquivClass is tables.EquivClass
    assert kflag.ExpansionResult is kflag.model.ExpansionResult is tables.ExpansionResult
    assert kflag.model.back_solve is tables.back_solve
    for name in ("O_BASIS", "IDEAL_BASIS", "OMEGA_BASIS", "OMEGA_BOUNDARY_BASIS", "BASES"):
        assert getattr(kflag.ring, name) is getattr(reports, name)
    assert kflag.cli.CACHE_SCHEMA_VERSION is cache.CACHE_SCHEMA_VERSION
    # a method read earlier in this process is the function already
    moved = [(cls, name, module) for cls, module in ((SchubertModel, tables),
                                                     (SchubertRing, reports))
             for name, value in vars(cls).items()
             if isinstance(value, Deferred) or getattr(value, "__module__", "") == module.__name__]
    assert len(moved) == 30
    for cls, name, module in moved:
        assert getattr(cls, name) is getattr(module, name) is vars(cls)[name]
    for module in (kflag, kflag.model, kflag.ring, kflag.cli):
        with pytest.raises(AttributeError, match="no_such_name"):
            module.no_such_name  # noqa: B018
