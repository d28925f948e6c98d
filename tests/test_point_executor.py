"""Tests for the point executor (``repro.experiments.parallel``).

Sweeps, campaigns and ``repro serve`` run every point through
:func:`execute`, on a :class:`WorkerPool` when pooled.  Pinned here:

* ``execute`` turns a good point, a failing one and a timed-out one into
  an :class:`Outcome`, and never raises;
* a pool worker holds none of the caller's sockets — workers start from
  a forkserver, not as forks of the caller, so a close-delimited stream
  the caller serves still reaches EOF when the caller closes it;
* a pool worker knows the core types its caller registered at run time;
* callers that report the same broken generation cost one rebuild.
"""

from __future__ import annotations

import dataclasses
import os
import signal
import socket
import threading
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.core.system import SystemConfig, run_system
from repro.experiments.parallel import Outcome, WorkerPool, execute
from repro.obs.provenance import result_digest
from repro.platform.coretypes import CORE_TYPES
from repro.telemetry import TelemetrySession, active_telemetry
from repro.verify.relations import (
    TypedZeroHazardTypedZeroFaults,
    check_relations,
)

#: One run is ~20 ms.
SMALL = SystemConfig(width=4, height=4, horizon_us=2000.0, seed=3)


def test_execute_good_point():
    outcome = execute(SMALL)
    assert isinstance(outcome, Outcome)
    assert outcome.error is None and outcome.telemetry is None
    assert result_digest(outcome.result) == result_digest(run_system(SMALL))


def test_execute_under_a_span_returns_its_blob():
    session = TelemetrySession("sweep")
    outcome = execute(SMALL, span=(session.ctx, "0", "sweep.run"))
    assert outcome.error is None
    assert outcome.telemetry["metrics"]["counters"]["sim.runs"] == 1
    assert [s["name"] for s in outcome.telemetry["spans"]] == ["sweep.run"]
    # The worker's registry went to run_system, not into the process.
    assert not active_telemetry().enabled


def test_execute_failing_point():
    outcome = execute(dataclasses.replace(SMALL, noc_mode="bogus"))
    assert outcome.result is None and outcome.telemetry is None
    assert outcome.error == "ValueError: unknown noc_mode 'bogus'"


@pytest.mark.skipif(
    not hasattr(signal, "SIGALRM"), reason="per-run timeout needs SIGALRM"
)
def test_execute_timed_out_point():
    # epoch_us=0.005 makes the control loop far too dense to finish.
    slow = dataclasses.replace(SMALL, epoch_us=0.005)
    handler = signal.getsignal(signal.SIGALRM)
    outcome = execute(slow, timeout_s=0.2)
    assert outcome.result is None
    assert outcome.error == "Timeout: run exceeded 0.2s"
    assert signal.getsignal(signal.SIGALRM) is handler


def _socket_inodes():
    """Inodes of every socket this process holds open."""
    inodes = set()
    for name in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{name}")
        except OSError:
            continue
        if target.startswith("socket:["):
            inodes.add(int(target[len("socket:["):-1]))
    return inodes


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
)
def test_pool_worker_holds_none_of_the_callers_sockets():
    with socket.socket() as listener:
        listener.bind(("127.0.0.1", 0))
        listener.listen()
        inode = os.fstat(listener.fileno()).st_ino
        assert inode in _socket_inodes()
        with WorkerPool(1) as pool:
            held = pool.submit(_socket_inodes).result(timeout=60)
    assert inode not in held


@pytest.fixture
def restore_core_types():
    """Undo this test's core-type registrations when it ends."""
    saved = dict(CORE_TYPES)
    yield
    CORE_TYPES.clear()
    CORE_TYPES.update(saved)


def test_pooled_relation_sees_a_run_time_core_type(restore_core_types):
    # The relation registers its ``canary`` type in this process only;
    # the workers get it with each call.
    relation = TypedZeroHazardTypedZeroFaults()
    report = check_relations(SMALL, [relation], jobs=2)
    assert report.ok and report.n_runs == 2


def _die():
    os._exit(3)


def test_two_reports_of_one_broken_generation_rebuild_once():
    with WorkerPool(1) as pool:
        generation = pool.generation
        with pytest.raises(BrokenProcessPool):
            pool.submit(_die).result(timeout=60)
        both_report = threading.Barrier(2)

        def report(_):
            both_report.wait(timeout=30)
            return pool.rebuild(generation)

        with ThreadPoolExecutor(2) as callers:
            replaced = sorted(callers.map(report, range(2)))
        assert replaced == [False, True]
        assert pool.generation == generation + 1
        # A stale report after the rebuild is a no-op, too.
        assert pool.rebuild(generation) is False
        outcome = pool.submit(execute, SMALL).result(timeout=60)
    assert result_digest(outcome.result) == result_digest(run_system(SMALL))
