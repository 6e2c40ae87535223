"""Documentation quality gates: every public module, class and function in
the library carries a docstring (deliverable (e): "doc comments on every
public item"), and the documentation files reference real artifacts."""

import importlib
import inspect
import pathlib
import pkgutil

import pytest

import repro

REPO = pathlib.Path(repro.__file__).resolve().parent.parent.parent


def _walk_modules():
    pkg_path = pathlib.Path(repro.__file__).parent
    for info in pkgutil.walk_packages([str(pkg_path)], prefix="repro."):
        yield info.name


ALL_MODULES = sorted(_walk_modules())


@pytest.mark.parametrize("modname", ALL_MODULES)
def test_module_has_docstring(modname):
    mod = importlib.import_module(modname)
    assert mod.__doc__ and mod.__doc__.strip(), f"{modname} lacks a module docstring"


@pytest.mark.parametrize("modname", ALL_MODULES)
def test_public_items_have_docstrings(modname):
    mod = importlib.import_module(modname)
    missing = []
    for name in getattr(mod, "__all__", []):
        obj = getattr(mod, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            if not (obj.__doc__ and obj.__doc__.strip()):
                missing.append(name)
            if inspect.isclass(obj):
                for mname, meth in vars(obj).items():
                    if mname.startswith("_") or not callable(meth):
                        continue
                    if isinstance(meth, (staticmethod, classmethod)):
                        meth = meth.__func__
                    if not (getattr(meth, "__doc__", None) or "").strip():
                        missing.append(f"{name}.{mname}")
    assert not missing, f"{modname}: undocumented public items {missing}"


def test_design_md_references_real_modules():
    text = (REPO / "DESIGN.md").read_text()
    for mod in ("repro.core.leaves_up", "repro.core.doubling", "repro.core.scheduler"):
        assert mod.replace("repro.", "") in text or mod in text


def test_readme_quickstart_imports_work():
    """The README's quickstart imports must exist."""
    from repro import ShortestPathOracle  # noqa: F401
    from repro.separators.grid import decompose_grid  # noqa: F401
    from repro.workloads.generators import grid_digraph  # noqa: F401


def test_experiments_md_mentions_every_table_and_figure():
    text = (REPO / "EXPERIMENTS.md").read_text()
    for artifact in ("Table 1", "Figure 1", "Figure 2", "Theorem 3.1"):
        assert artifact in text, f"EXPERIMENTS.md missing {artifact}"


#: Fixtures pytest itself provides (``pytest --fixtures`` without plugins).
PYTEST_FIXTURES = {
    "cache", "capfd", "capfdbinary", "caplog", "capsys", "capsysbinary", "capteesys",
    "doctest_namespace", "monkeypatch", "pytestconfig", "record_property",
    "record_testsuite_property", "record_xml_attribute", "recwarn", "request",
    "subtests", "tmp_path", "tmp_path_factory", "tmpdir", "tmpdir_factory",
}


def _load_standalone(path):
    import importlib.util

    spec = importlib.util.spec_from_file_location(path.stem, path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _fixture_names(mod) -> set[str]:
    """Names of the ``@pytest.fixture`` functions ``mod`` defines."""
    names = set()
    for attr, obj in vars(mod).items():
        marker = (getattr(obj, "_fixture_function_marker", None)
                  or getattr(obj, "_pytestfixturefunction", None))
        if marker is not None:
            names.add(marker.name or attr)
    return names


def test_benchmarks_importable_and_complete():
    """Every experiment id in DESIGN.md §4's index has a bench module that
    imports cleanly and defines at least one test function (guards against
    bench rot without running them here), and every bench test asks only
    for fixtures that ``benchmarks/conftest.py``, its own module or pytest
    itself defines — a fixture from an uninstalled plugin would error."""
    bench_dir = REPO / "benchmarks"
    shared = _fixture_names(_load_standalone(bench_dir / "conftest.py")) | PYTEST_FIXTURES
    seen_tests = 0
    for path in sorted(bench_dir.glob("bench_*.py")):
        mod = _load_standalone(path)
        fns = [n for n in vars(mod) if n.startswith("test_")]
        assert fns, f"{path.name} defines no test functions"
        seen_tests += len(fns)
        known = shared | _fixture_names(mod)
        for name in fns:
            fn = getattr(mod, name)
            params = set(inspect.signature(fn).parameters)
            for mark in getattr(fn, "pytestmark", []):
                if mark.name == "parametrize":
                    argnames = mark.args[0]
                    params -= set(argnames.replace(" ", "").split(",")
                                  if isinstance(argnames, str) else argnames)
            unknown = sorted(params - known)
            assert not unknown, f"{path.name}::{name} asks for undefined fixtures {unknown}"
    assert seen_tests >= 30


def test_examples_importable():
    """Every example compiles (full runs live in the examples themselves)."""
    import py_compile

    for path in sorted((REPO / "examples").glob("*.py")):
        py_compile.compile(str(path), doraise=True)
