"""The analysis service simulates on a process pool.

A pooled :class:`~repro.service.app.StudyService` forks its runner's
workers before any thread of its own exists, keeps them across
studies, and survives a worker that dies mid-job: that job fails, the
next one runs on a rebuilt pool, and every answer keeps the serial
runner's bytes.
"""

from __future__ import annotations

import json
import multiprocessing
import os

import pytest

from repro.maintenance.strategy import MaintenanceStrategy
from repro.service.app import StudyService
from repro.service.wire import dumps, encode_wire
from repro.simulation import parallel
from repro.simulation.executor import FMTSimulator
from repro.studies.runner import StudyRequest, StudyRunner

#: Studies with this horizon build a simulator that kills its worker.
CRASH_HORIZON = 3.0

_TEST_PID = os.getpid()


class _WorkerKillingSimulator(FMTSimulator):
    """Dies abruptly in a pool worker (``os._exit``, like a segfault)."""

    def simulate(self, rng):
        if os.getpid() == _TEST_PID:
            raise RuntimeError("simulated in the test process, not on the pool")
        os._exit(17)


def _request(tree, seed, horizon=4.0, n_runs=40):
    return StudyRequest(
        tree=tree,
        strategy=MaintenanceStrategy.none(),
        horizon=horizon,
        seed=seed,
        n_runs=n_runs,
    )


def _submit(service, request):
    response = service.handle(
        "POST", "/v1/studies", {}, dumps(request).encode("utf-8")
    )
    return response.status, json.loads(response.body)


def _finish(service, submitted, timeout=60.0):
    job = service.jobs.get(submitted["job_id"])
    assert job is not None
    assert job.wait(timeout), f"job {job.id} did not finish"
    return job


def _children():
    return {process.pid for process in multiprocessing.active_children()}


def _serial(request):
    runner = StudyRunner(processes=1)
    try:
        return runner.summary(request)
    finally:
        runner.close()


def test_pooled_service_forks_workers_first_and_keeps_them(simple_or_tree):
    before = _children()
    service = StudyService(StudyRunner(processes=2), workers=2)
    try:
        workers = _children() - before
        assert len(workers) == 2  # forked before the first submission
        for seed in (1, 2, 3):
            request = _request(simple_or_tree, seed)
            status, submitted = _submit(service, request)
            assert status == 202
            job = _finish(service, submitted)
            assert job.status == "done", job.error
            assert encode_wire(job.result) == encode_wire(_serial(request))
            assert _children() - before == workers
        # The workers attached to the studies' shared-memory segments
        # through this process's resource tracker: none started a
        # tracker (a child process) of its own.
        for pid in workers:
            children = f"/proc/{pid}/task/{pid}/children"
            if os.path.exists(children):
                with open(children) as handle:
                    assert handle.read().split() == []
        gauges = service.instrumentation.registry.to_dict()["gauges"]
        assert gauges["sim.workers"]["last"] >= 1
    finally:
        service.close()
    assert not _children() - before


def test_worker_crash_fails_one_job_not_the_service(
    simple_or_tree, monkeypatch
):
    build = StudyRequest.build_simulator

    def build_simulator(request):
        simulator = build(request)
        if request.horizon != CRASH_HORIZON:
            return simulator
        return _WorkerKillingSimulator(
            request.tree, request.strategy, config=simulator.config
        )

    monkeypatch.setattr(StudyRequest, "build_simulator", build_simulator)
    service = StudyService(StudyRunner(processes=2), workers=1)
    try:
        crashing = _request(simple_or_tree, seed=5, horizon=CRASH_HORIZON)
        status, submitted = _submit(service, crashing)
        assert status == 202
        job = _finish(service, submitted)
        assert job.status == "failed"
        assert "SimulationError" in job.error
        assert "worker process terminated abruptly" in job.error
        polled = json.loads(
            service.handle("GET", submitted["location"], {}, b"").body
        )
        assert polled["status"] == "failed" and polled["error"] == job.error

        # The failed job left no in-flight entry behind.
        status, again = _submit(service, crashing)
        assert status == 202
        assert again["deduplicated"] is False
        assert again["job_id"] != submitted["job_id"]
        assert _finish(service, again).status == "failed"

        # The next study runs on a rebuilt pool and keeps its bytes.
        normal = _request(simple_or_tree, seed=6)
        status, submitted = _submit(service, normal)
        assert status == 202
        job = _finish(service, submitted)
        assert job.status == "done", job.error
        assert encode_wire(job.result) == encode_wire(_serial(normal))
    finally:
        service.close()


@pytest.mark.parametrize("cpus", [1, 2])
def test_default_runner_pools_every_study(simple_or_tree, monkeypatch, cpus):
    monkeypatch.setattr(parallel, "_available_cpu_count", lambda: cpus)
    before = _children()
    service = StudyService(workers=1)
    try:
        assert service.runner.processes == cpus
        assert len(_children() - before) == (cpus if cpus > 1 else 0)
        request = _request(simple_or_tree, seed=9, n_runs=10)
        status, submitted = _submit(service, request)
        assert status == 202
        job = _finish(service, submitted)
        assert job.status == "done", job.error
        assert encode_wire(job.result) == encode_wire(_serial(request))
    finally:
        service.close()


def test_serial_runner_service_starts_no_process(simple_or_tree):
    before = _children()
    service = StudyService(StudyRunner(processes=1), workers=2)
    try:
        request = _request(simple_or_tree, seed=4, n_runs=2000)
        status, submitted = _submit(service, request)
        assert status == 202
        assert _finish(service, submitted).status == "done"
        assert not _children() - before
    finally:
        service.close()
