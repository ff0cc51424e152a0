"""Ctrl-C on a pooled run: the driver handles it, the workers stay quiet.

A terminal Ctrl-C sends SIGINT to the whole process group.  Pool
workers start with SIGINT blocked, so none prints a
``KeyboardInterrupt`` traceback, and an interrupted driver cancels its
queued chunks instead of waiting for them.  The CLI then exits 130
with a one-line message.  Each command below runs in its own session,
so the signal reaches exactly its process group.
"""

import os
import signal
import subprocess
import sys
import time

import pytest

pytestmark = pytest.mark.skipif(
    not os.path.exists(f"/proc/{os.getpid()}/task"),
    reason="reads child processes from /proc",
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MODEL = os.path.join(ROOT, "examples", "models", "ei_joint.fmt")

#: What a worker's traceback would show (its task loop or queue read).
WORKER_FRAMES = ("_process_worker", "call_queue", "_RemoteTraceback")

#: A pooled RESTART estimate that runs for minutes uninterrupted.
RARE_EVENT_RUN = """
from repro.eijoint import build_ei_joint_fmt, current_policy
from repro.rareevent import RareEventConfig
from repro.simulation.montecarlo import MonteCarlo

MonteCarlo(build_ei_joint_fmt(), current_policy(), horizon=50.0, seed=3).run_rare_event(
    RareEventConfig(method="restart", n_roots=4000), processes=2
)
"""


def _children(pid):
    try:
        with open(f"/proc/{pid}/task/{pid}/children", encoding="ascii") as handle:
            return [int(child) for child in handle.read().split()]
    except FileNotFoundError:
        return []


def _interrupt(args, settle):
    """Start ``python *args``, interrupt its group once its pool is up,
    and return (exit code, seconds to exit, stderr, the children
    seen)."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.Popen(
        [sys.executable, *args],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        start_new_session=True,
        env=env,
        text=True,
    )
    try:
        deadline = time.monotonic() + 60.0
        while len(_children(proc.pid)) < 2 and time.monotonic() < deadline:
            time.sleep(0.05)
        time.sleep(settle)
        children = _children(proc.pid)
        assert len(children) >= 2, "the pool never started"
        start = time.monotonic()
        os.killpg(proc.pid, signal.SIGINT)
        _, stderr = proc.communicate(timeout=30.0)
        return proc.returncode, time.monotonic() - start, stderr, children
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()


def _running(pid):
    # An exited child lingers as a zombie until it is reaped, with an
    # empty command line.
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as handle:
            return bool(handle.read())
    except FileNotFoundError:
        return False


def _assert_children_gone(children, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        alive = [pid for pid in children if _running(pid)]
        if not alive:
            return
        time.sleep(0.1)
    raise AssertionError(f"child processes left running: {alive}")


def test_interrupted_pooled_simulate_cancels_queued_chunks():
    code, seconds, stderr, children = _interrupt(
        ["-m", "repro", "simulate", MODEL, "--runs", "200000",
         "--horizon", "50", "--processes", "2"],
        settle=1.0,
    )
    assert code == 130, stderr  # interrupted, not finished
    assert stderr.strip().splitlines()[-1] == "interrupted", stderr
    assert "Traceback" not in stderr, stderr
    assert seconds < 10.0, f"took {seconds:.1f}s to exit after Ctrl-C"
    assert not any(frame in stderr for frame in WORKER_FRAMES), stderr
    _assert_children_gone(children)


def test_interrupted_pooled_rare_event_run_cancels_queued_units():
    code, seconds, stderr, children = _interrupt(
        ["-c", RARE_EVENT_RUN], settle=1.0
    )
    assert code != 0  # interrupted, not finished
    assert seconds < 10.0, f"took {seconds:.1f}s to exit after Ctrl-C"
    assert not any(frame in stderr for frame in WORKER_FRAMES), stderr
    _assert_children_gone(children)


def test_idle_pool_workers_print_no_traceback_on_ctrl_c():
    code, seconds, stderr, children = _interrupt(
        ["-m", "repro", "serve", "--port", "0", "--processes", "2",
         "--no-cache"],
        settle=0.5,
    )
    assert code == 0
    assert seconds < 10.0
    assert "KeyboardInterrupt" not in stderr, stderr
    _assert_children_gone(children)
