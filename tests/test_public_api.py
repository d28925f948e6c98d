"""Public-API surface checks.

A downstream user's imports should be stable: everything advertised in
``__all__`` must exist, the top-level package must expose the documented
entry points, and the packaged doctest must hold.

``PACKAGES`` below is also the source of truth for the generated API
reference: ``benchmarks/gen_api_docs.py`` loads this module by file path
and emits one ``docs/api/*.md`` page per listed package, and the drift
test at the bottom fails when those pages lag the code.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.aging",
    "repro.cache",
    "repro.campaign",
    "repro.core",
    "repro.dse",
    "repro.experiments",
    "repro.mapping",
    "repro.metrics",
    "repro.noc",
    "repro.obs",
    "repro.platform",
    "repro.power",
    "repro.serve",
    "repro.sim",
    "repro.telemetry",
    "repro.testing",
    "repro.verify",
    "repro.workload",
]

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_script(name):
    """Import a benchmarks/ script by path (they are not a package)."""
    path = os.path.join(REPO_ROOT, "benchmarks", name + ".py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", PACKAGES)
def test_all_exports_resolve(name):
    module = importlib.import_module(name)
    assert hasattr(module, "__all__"), f"{name} has no __all__"
    for symbol in module.__all__:
        assert hasattr(module, symbol), f"{name}.{symbol} missing"


def test_top_level_entry_points():
    assert callable(repro.run_system)
    assert repro.SystemConfig is not None
    assert repro.__version__


def test_package_doctest():
    from repro import SystemConfig, run_system

    result = run_system(SystemConfig(horizon_us=2_000.0, seed=7))
    assert result.summary()["tests_completed"] >= 0


def test_submodules_not_exported_accidentally():
    """__all__ names are classes/functions/constants, not module objects."""
    import types

    for symbol in repro.__all__:
        value = getattr(repro, symbol)
        assert not isinstance(value, types.ModuleType), symbol


def test_cli_module_importable():
    from repro.cli import build_parser

    parser = build_parser()
    assert parser.prog == "repro"


#: Everything a run, sweep, campaign, cache hit or served point imports.
#: Importing numpy costs each interpreter about 0.1 s and 13 MB, so none
#: of these may load it; ``repro.dse`` (the surrogate fit) is its only user.
NUMPY_FREE_MODULES = [
    "repro",
    "repro.experiments",
    "repro.campaign",
    "repro.cache",
    "repro.serve.server",
    "repro.serve.client",
    "repro.cli",
    "repro.verify",
]


def test_run_path_does_not_import_numpy():
    code = (
        "import importlib, json, sys\n"
        "loaded = {}\n"
        f"for name in {NUMPY_FREE_MODULES!r}:\n"
        "    importlib.import_module(name)\n"
        "    loaded[name] = 'numpy' in sys.modules\n"
        "print(json.dumps(loaded))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    loaded = json.loads(proc.stdout)
    assert list(loaded) == NUMPY_FREE_MODULES
    offenders = [name for name, numpy_seen in loaded.items() if numpy_seen]
    assert offenders == [], f"numpy loaded by importing {offenders[0]}"


# ----------------------------------------------------------------------
# Documentation gates (same checks CI's docs job runs)
# ----------------------------------------------------------------------
def test_gen_api_docs_uses_this_package_list():
    gen = _load_script("gen_api_docs")
    assert gen.load_packages() == PACKAGES


def test_api_reference_not_stale():
    """docs/api/ must match what gen_api_docs.py would emit today."""
    gen = _load_script("gen_api_docs")
    problems = gen.check_pages(gen.render_all())
    assert problems == [], (
        "regenerate with `PYTHONPATH=src python benchmarks/gen_api_docs.py`"
    )


def test_docstring_lint_clean():
    """Every public name in cache/campaign/obs carries a docstring."""
    check = _load_script("check_docs")
    assert check.check_docstrings() == []


def test_docs_internal_links_resolve():
    check = _load_script("check_docs")
    assert check.check_links() == []
