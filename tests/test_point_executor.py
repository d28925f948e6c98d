"""Tests for the point executor (``repro.experiments.parallel``).

Sweeps, campaigns and ``repro serve`` run every point through
:func:`execute`, on a :class:`WorkerPool` when pooled.  Pinned here:

* ``execute`` turns a good point, a failing one and a timed-out one into
  an :class:`Outcome`, and never raises;
* a pool worker holds none of the caller's sockets — workers start from
  a forkserver, not as forks of the caller, so a close-delimited stream
  the caller serves still reaches EOF when the caller closes it;
* a pool worker knows the core types its caller registered at run time;
* callers that report the same broken generation cost one rebuild;
* a pool's workers, forkserver and resource tracker end soon after its
  owner is SIGKILLed.
"""

from __future__ import annotations

import dataclasses
import os
import signal
import socket
import subprocess
import sys
import textwrap
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest

import repro
from repro.core.system import SystemConfig, run_system
from repro.experiments.parallel import Outcome, WorkerPool, execute
from repro.obs.provenance import result_digest
from repro.platform.coretypes import CORE_TYPES
from repro.verify.relations import (
    TypedZeroHazardTypedZeroFaults,
    check_relations,
)

#: One run is ~20 ms.
SMALL = SystemConfig(width=4, height=4, horizon_us=2000.0, seed=3)


def test_execute_good_point():
    outcome = execute(SMALL)
    assert isinstance(outcome, Outcome)
    assert outcome.error is None
    assert result_digest(outcome.result) == result_digest(run_system(SMALL))


def test_execute_with_telemetry_returns_its_blob():
    # What campaign heartbeats read: who ran the point, and for how long.
    outcome = execute(SMALL)
    assert outcome.pid == os.getpid()
    assert outcome.wall_s > 0


def test_execute_failing_point():
    outcome = execute(dataclasses.replace(SMALL, noc_mode="bogus"))
    assert outcome.result is None
    assert outcome.error == "ValueError: unknown noc_mode 'bogus'"
    assert outcome.pid == os.getpid()


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


def _process_table():
    """``{pid: (ppid, state)}`` for every process in ``/proc``."""
    table = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        table[int(name)] = (int(fields[1]), fields[0])
    return table


def _descendants(pid):
    table = _process_table()
    found, frontier = set(), {pid}
    while frontier:
        frontier = {
            child for child, (parent, _) in table.items()
            if parent in frontier and child not in found
        }
        found |= frontier
    return found


def _running(pids):
    """The pids still running (a zombie awaiting its reaper is dead)."""
    table = _process_table()
    return {pid for pid in pids if pid in table and table[pid][1] != "Z"}


#: A pool owner: runs one round of points, reports, then idles.
_OWNER = textwrap.dedent(
    """
    import time
    from repro.core.system import SystemConfig
    from repro.experiments.parallel import WorkerPool, execute

    pool = WorkerPool(2)
    small = SystemConfig(width=2, height=2, horizon_us=500.0)
    for future in [pool.submit(execute, small) for _ in range(4)]:
        assert future.result(timeout=60).error is None
    print("ready", flush=True)
    time.sleep(120)
    """
)


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_pool_dies_with_its_sigkilled_owner():
    env = dict(os.environ)
    # The owner imports the same repro as this test does.
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    owner = subprocess.Popen(
        [sys.executable, "-c", _OWNER], stdout=subprocess.PIPE, env=env,
        text=True,
    )
    family = set()
    try:
        assert owner.stdout.readline().strip() == "ready"
        family = _descendants(owner.pid)
        # Two workers, the forkserver and its resource tracker.
        assert len(family) >= 4, family
        owner.kill()
        owner.wait(timeout=10)
        deadline = time.monotonic() + 10.0
        while _running(family) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert not _running(family), "orphans outlived their owner"
    finally:
        owner.kill()
        owner.wait(timeout=10)
        owner.stdout.close()
        for pid in _running(family):
            os.kill(pid, signal.SIGKILL)
