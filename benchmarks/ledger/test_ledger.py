"""Self-test of the performance ledger at smoke scale.

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/ledger -q

It drives ``run.py --seconds 1`` as a subprocess, so it checks the same
command the benchmark is run with, on 1-second runs.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def run_ledger(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--seconds", "1", *args],
        cwd=str(ROOT), stdout=subprocess.PIPE, text=True, timeout=120,
    )


def printed_units(stdout: str) -> dict:
    """``name -> unit`` of every metric row in a run's table."""
    rows = re.findall(r"^  (\S+) +\S+ (\S+) ", stdout, flags=re.M)
    return dict(rows)


@pytest.fixture(scope="module")
def e2e(tmp_path_factory):
    path = tmp_path_factory.mktemp("ledger") / "runs.json"
    proc = run_ledger("--workload", "all", "--json", str(path))
    return proc, json.loads(path.read_text())


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    path = tmp_path_factory.mktemp("ledger") / "traced.json"
    proc = run_ledger("--workload", "paper-e2", "--trace", "1", "--json", str(path))
    return proc, json.loads(path.read_text())


def test_metric_names_are_well_formed():
    names = [m["name"] for kind in ("end_to_end", "per_layer") for m in BENCH[kind]]
    assert len(names) == len(set(names))
    for name in names + [w["name"] for w in BENCH["workloads"]]:
        assert NAME.fullmatch(name), name


def test_every_end_to_end_metric_printed_with_its_unit(e2e):
    proc, record = e2e
    assert proc.returncode == 0, proc.stdout
    assert [run["workload"] for run in record["runs"]] == [
        w["name"] for w in BENCH["workloads"]
    ]
    for block in proc.stdout.split("== ")[1:]:
        units = printed_units(block)
        for metric in BENCH["end_to_end"]:
            assert units.get(metric["name"]) == metric["unit"], block


def test_every_per_layer_metric_printed_with_its_unit(traced):
    proc, _ = traced
    assert proc.returncode == 0, proc.stdout
    units = printed_units(proc.stdout)
    for metric in BENCH["per_layer"]:
        assert units.get(metric["name"]) == metric["unit"], metric["name"]


def test_trace_coverage_check_holds(traced):
    proc, _ = traced
    coverage = float(re.search(r"trace\.coverage +(\S+)", proc.stdout).group(1))
    assert 0.98 <= coverage <= 1.02
    assert "traced outputs differ" not in proc.stdout


def test_json_output_round_trips(e2e, traced):
    for proc, record in (e2e, traced):
        printed = [
            json.loads(line) for line in proc.stdout.splitlines()
            if line.startswith("{")
        ]
        assert printed == [run["result"] for run in record["runs"]]
        assert json.loads(json.dumps(record)) == record
        last = printed[-1]
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] is True and last["attempted"] >= 1
