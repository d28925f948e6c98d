"""Each entry point imports only the modules its path runs.

``repro serve``, its client library, every ``repro`` CLI call and each
worker pool's forkserver start a fresh interpreter, so what an import
drags in is paid at every start.  Each check below imports in a fresh
interpreter and reads ``sys.modules``; nothing is timed.  The last
checks pin the other side of the rule: work an entry point needs is
imported before it is ready, not during its first point.
"""

import json
import os
import pickle
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: Prints the sorted ``repro`` modules (and numpy, if loaded) as JSON.
_LOADED = (
    "import json, sys\n"
    "print(json.dumps(sorted(m for m in sys.modules\n"
    "                        if m.startswith('repro') or m == 'numpy')))\n"
)


def _fresh(code, *args):
    """Run ``code`` in a new interpreter; its last stdout line as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _under(modules, *packages):
    return [m for m in modules if any(m == p or m.startswith(p + ".") for p in packages)]


def _model():
    """The model: modules that only a process running points loads."""
    from repro.core.system import ManycoreSystem

    return (
        ManycoreSystem.__module__,
        "repro.core.executor",
        "repro.core.scheduler",
        "repro.core.mapping",
        "repro.core.criticality",
        "repro.experiments.parallel",
        "repro.mapping",
        "repro.noc",
        "repro.power.manager",
        "repro.power.meter",
        "repro.power.pid",
        "repro.testing",
        "repro.aging",
        "repro.platform.chip",
        "repro.platform.thermal",
        "repro.platform.variation",
    )


def test_serve_client_loads_no_simulator():
    loaded = _fresh("import repro.serve.client\n" + _LOADED)
    assert "repro.serve.jsonl" in loaded
    assert _under(
        loaded,
        "repro.core",
        "repro.platform",
        "repro.experiments",
        "repro.campaign",
        "repro.cache",
    ) == []


def test_top_level_package_loads_no_subpackage():
    loaded, config_module = _fresh(
        "import json, sys\n"
        "import repro\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('repro.'))\n"
        "print(json.dumps([loaded, repro.SystemConfig.__module__]))\n"
    )
    assert loaded == ["repro._lazy"]
    assert config_module == "repro.core.config_io"


@pytest.mark.parametrize("plane", ["repro.core.config_io", "repro.metrics.collectors"])
def test_config_and_result_planes_load_no_model(plane):
    loaded = _fresh(f"import {plane}\n" + _LOADED)
    assert plane in loaded
    assert _under(loaded, *_model()) == []


def test_stats_load_no_model():
    loaded = _fresh("import repro.metrics.stats\n" + _LOADED)
    assert "repro.metrics.stats" in loaded
    assert _under(loaded, *_model()) == []


def test_result_plane_unpickles_a_result_alone(tmp_path):
    from repro.core.system import SystemConfig, run_system

    path = tmp_path / "result.pickle"
    config = SystemConfig(width=4, height=4, horizon_us=2000.0, fault_hazard_per_us=1e-4)
    path.write_bytes(pickle.dumps(run_system(config), protocol=4))
    new = _fresh(
        "import json, pickle, sys\n"
        "import repro.metrics.collectors\n"
        "before = set(sys.modules)\n"
        "with open(sys.argv[1], 'rb') as handle:\n"
        "    assert pickle.load(handle).summary()\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n",
        str(path),
    )
    assert new == []


def test_forkserver_preload_loads_no_experiment_runner():
    loaded = _fresh("import repro.experiments.parallel\n" + _LOADED)
    assert "repro.core.system" in loaded
    assert _under(
        loaded,
        "repro.experiments.ablations",
        "repro.experiments.runners",
        "repro.serve",
        "repro.campaign",
    ) == []


def test_cli_help_loads_no_command_stack():
    loaded = _fresh(
        "import runpy, sys\n"
        "sys.argv = ['repro', '--help']\n"
        "try:\n"
        "    runpy.run_module('repro', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    assert exc.code in (0, None), exc.code\n" + _LOADED
    )
    assert "repro.cli" in loaded
    assert _under(
        loaded,
        "repro.experiments",
        "repro.campaign",
        "repro.serve",
        "repro.dse",
        "repro.verify",
        "numpy",
    ) == []


@pytest.mark.parametrize("module", ["repro.experiments", "repro.experiments.runners"])
def test_experiment_registry_is_whole_through(module):
    found = _fresh(
        "import json\n"
        f"from {module} import EXPERIMENTS, run_experiment\n"
        "result = run_experiment('A1', horizon_us=1000.0)\n"
        "print(json.dumps([sorted(EXPERIMENTS), result.experiment_id]))\n"
    )
    ids, ran = found
    expected = {f"E{i}" for i in range(1, 12)} | {f"A{i}" for i in range(1, 9)}
    assert set(ids) == expected
    assert ran == "A1"


# ----------------------------------------------------------------------
# Nothing is deferred past readiness
# ----------------------------------------------------------------------
def test_first_point_imports_nothing_new():
    new = _fresh(
        "import json, sys\n"
        "from dataclasses import replace\n"
        "import repro.experiments.parallel, repro.experiments.runners\n"
        "from repro.experiments.runners import DEFAULT_CONFIG\n"
        "before = {m for m in sys.modules if m.startswith('repro')}\n"
        "[result] = repro.experiments.parallel.run_many(\n"
        "    [replace(DEFAULT_CONFIG, horizon_us=2000.0)])\n"
        "assert result.summary()\n"
        "print(json.dumps(sorted({m for m in sys.modules\n"
        "                         if m.startswith('repro')} - before)))\n"
    )
    assert new == []


#: Runs ``repro serve`` (``--jobs`` from the fourth argument, default 0)
#: in this interpreter's main thread; a second thread waits for the port
#: file, sends one point twice (computed, then served from the cache)
#: and compares ``sys.modules``.
_SERVE_FIRST_SWEEP = """
import asyncio, json, os, pathlib, signal, sys, threading, time
from repro.cli import main
from repro.serve.client import ServeClient, sweep_request_doc

port_file, state_dir, cache_dir = sys.argv[1:4]
jobs = sys.argv[4] if len(sys.argv) > 4 else "0"
report = {}


def repro_modules():
    return {m for m in sys.modules if m.startswith("repro")}


def first_sweep():
    try:
        path = pathlib.Path(port_file)
        while not path.exists():
            time.sleep(0.01)
        before = repro_modules()
        report["ready"] = sorted(before)
        client = ServeClient("127.0.0.1", int(path.read_text()))
        doc = sweep_request_doc([{"width": 4, "height": 4, "horizon_us": 2000.0}])
        events = asyncio.run(client.sweep(doc))
        report["events"] = [event["event"] for event in events]
        again = asyncio.run(client.sweep(doc))
        report["sources"] = [e["source"] for e in again if e["event"] == "result"]
        report["new"] = sorted(repro_modules() - before)
    finally:
        os.kill(os.getpid(), signal.SIGTERM)


threading.Thread(target=first_sweep, daemon=True).start()
code = main(["serve", "--port", "0", "--port-file", port_file,
             "--state-dir", state_dir, "--cache-dir", cache_dir, "--jobs", jobs])
print(json.dumps(dict(report, code=code)))
"""


def test_serve_first_sweep_imports_nothing_new(tmp_path):
    report = _fresh(
        _SERVE_FIRST_SWEEP,
        str(tmp_path / "port"),
        str(tmp_path / "state"),
        str(tmp_path / "cache"),
    )
    assert report["events"] == ["accepted", "result", "done"]
    assert report["new"] == []
    assert report["code"] == 0


def test_pooled_serve_parent_never_loads_the_model(tmp_path):
    report = _fresh(
        _SERVE_FIRST_SWEEP,
        str(tmp_path / "port"),
        str(tmp_path / "state"),
        str(tmp_path / "cache"),
        "1",
    )
    assert "repro.metrics.collectors" in report["ready"]
    assert _under(report["ready"], *_model()) == []
    assert report["events"] == ["accepted", "result", "done"]
    assert report["sources"] == ["cached"]
    assert report["new"] == []
    assert report["code"] == 0


def _first_point_modules(config):
    """In a pool worker: its ``repro`` modules, and those its first
    point imported."""
    from repro.experiments.pool import execute

    before = {m for m in sys.modules if m.startswith("repro")}
    assert execute(config).error is None
    return sorted(before), sorted(
        {m for m in sys.modules if m.startswith("repro")} - before
    )


def test_pooled_first_point_imports_nothing_the_preload_did_not():
    from repro.core.config_io import SystemConfig
    from repro.experiments.pool import WorkerPool

    preload = _fresh("import repro.experiments.parallel\n" + _LOADED)
    config = SystemConfig(width=4, height=4, horizon_us=2000.0)
    with WorkerPool(1) as pool:
        had, new = pool.submit(_first_point_modules, config).result()
    assert new == []
    assert set(had) <= set(preload)
