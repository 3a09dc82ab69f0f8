"""Packaging-level tests of the public API surface.

Everything the package exports must be importable, documented, and
consistent — the contract a downstream user relies on before reading any
code.
"""

import ast
import importlib
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

SUBPACKAGES = [
    "repro.sparse",
    "repro.simmpi",
    "repro.grid",
    "repro.summa",
    "repro.model",
    "repro.apps",
    "repro.data",
    "repro.dist",
    "repro.utils",
    "repro.cli",
]


class TestTopLevelExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"__all__ lists missing name {name}"

    def test_exported_callables_documented(self):
        undocumented = [
            name for name in repro.__all__
            if callable(getattr(repro, name))
            and not (getattr(repro, name).__doc__ or "").strip()
        ]
        assert not undocumented, f"missing docstrings: {undocumented}"

    def test_version_matches_changelog(self):
        assert repro.__version__ == "1.0.0"

    def test_error_hierarchy(self):
        from repro import (
            CommError,
            DistributionError,
            FormatError,
            GridError,
            MemoryBudgetError,
            PlannerError,
            ReproError,
            ShapeError,
            SpmdError,
        )

        for exc in (ShapeError, FormatError, GridError, DistributionError,
                    MemoryBudgetError, CommError, SpmdError, PlannerError):
            assert issubclass(exc, ReproError)


class TestSubpackages:
    @pytest.mark.parametrize("module", SUBPACKAGES)
    def test_importable_and_documented(self, module):
        mod = importlib.import_module(module)
        assert (mod.__doc__ or "").strip(), f"{module} lacks a docstring"

    @pytest.mark.parametrize("module", [
        "repro.sparse", "repro.simmpi", "repro.summa", "repro.model",
        "repro.apps", "repro.data", "repro.dist",
    ])
    def test_subpackage_all_resolves(self, module):
        mod = importlib.import_module(module)
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), f"{module}.__all__ lists {name}"


class TestScipyIsolation:
    def test_library_never_imports_scipy(self):
        """scipy is a test oracle only — the library must stand alone."""
        import subprocess
        import sys

        code = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"  # poison the import
            "import repro\n"
            "import repro.apps, repro.dist, repro.model, repro.cli\n"
            "a = repro.random_sparse(10, 10, nnz=20, seed=1)\n"
            "r = repro.batched_summa3d(a, a, nprocs=4, batches=2)\n"
            "assert r.matrix.nnz > 0\n"
            "print('scipy-free OK')\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
        )
        assert out.returncode == 0, out.stderr
        assert "scipy-free OK" in out.stdout


# ---------------------------------------------------------------------- #
# orphan-module fence: a module stays only if something uses it
# ---------------------------------------------------------------------- #

#: the directories whose imports count as uses (tests do not)
USER_DIRS = ("examples", "benchmarks", "perfbench")

#: modules with no importer by design: ``python -m repro``, and the
#: applications ``repro.apps`` exports to users that no example or
#: benchmark calls yet
ENTRY_POINTS = {
    "repro.__main__",
    "repro.apps.als",
    "repro.apps.gnn_propagate",
    "repro.apps.jaccard",
    "repro.apps.pagerank",
}


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imports(path: Path, name: str):
    """``(module, imported names)`` per import statement, with relative
    imports resolved against ``name`` (the importing module)."""
    package = name.split(".")
    if path.name != "__init__.py":
        package = package[:-1]
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, ()
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                base = package[: len(package) - node.level + 1]
                module = ".".join(base + ([module] if module else []))
            yield module, tuple(alias.name for alias in node.names)


def _library_users() -> tuple[dict, dict]:
    """Every library module, and for each module the set of importers
    (module names, or file paths outside ``src``)."""
    library = {_module_name(p): p for p in (SRC / "repro").rglob("*.py")}
    # names a package __init__ re-exports -> the module they come from
    reexports = {}
    for name, path in library.items():
        if path.name == "__init__.py":
            for module, names in _imports(path, name):
                for n in names:
                    sub = f"{module}.{n}"
                    reexports[(name, n)] = sub if sub in library else module
    files = list(library.items())
    for d in USER_DIRS:
        files += [(str(p), p) for p in (ROOT / d).rglob("*.py")]
    users: dict = {}
    for who, path in files:
        for module, names in _imports(path, who if who in library else ""):
            targets = {module} | {f"{module}.{n}" for n in names}
            for n in names:
                # ``from pkg import f`` uses the module pkg took f from
                key = (module, n)
                while key in reexports:
                    targets.add(reexports[key])
                    key = (reexports[key], n)
            for t in list(targets):
                parts = t.split(".")
                targets.update(
                    ".".join(parts[:k]) for k in range(1, len(parts))
                )
            for t in targets & set(library):
                users.setdefault(t, set()).add(who)
    return library, users


class TestOrphanModules:
    def test_every_module_has_a_user(self):
        """Each module under ``src/repro`` is imported by another library
        module, an example, a benchmark or the perf ledger.  A package
        ``__init__`` re-exporting a module's names does not count as a
        use on its own; importing those names from the package does."""
        library, users = _library_users()
        orphans = []
        for name, path in sorted(library.items()):
            importers = {
                u for u in users.get(name, ())
                if u != name
                and not (name.startswith(u + ".")
                         and library[u].name == "__init__.py")
            }
            if not importers and name not in ENTRY_POINTS:
                orphans.append(name)
        assert not orphans, (
            f"modules nothing uses outside tests: {orphans}; delete them "
            "with their tests, or call them from the library, an example "
            "or a benchmark"
        )

    def test_entry_points_exist(self):
        library, _users = _library_users()
        assert ENTRY_POINTS <= set(library)
