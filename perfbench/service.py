"""The ``service-mixed`` workload: closed-loop traffic to ``repro serve``.

The service runs in its own process (``python -m repro serve``), fed by
one process with two client threads.  Three of every four submissions
re-send a study of a small hot set answered during set-up (a cache
read, answered with a synchronous 200); one submits a fresh seed (a
write: queued, simulated, stored to memo and disk, and polled to
``done``).  Submissions omit ``kernel``, so the service routes every
one of them.
"""

from __future__ import annotations

import http.client
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from typing import Dict, List, Optional
from urllib.parse import urlsplit

import layers
import stats
from workloads import (
    CLIENTS,
    HERE,
    HOT_SET,
    MISS_EVERY,
    POLL_INTERVAL_S,
    RATE_WINDOWS,
    ROOT,
    SERVICE_RUNS,
    SERVICE_WORKERS,
    SRC,
    reference,
    seed_stream,
    service_request,
    use_source_tree,
)

SCRATCH = os.path.join(ROOT, ".perfbench")
BOOT_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 30.0
JOB_TIMEOUT_S = 60.0


def canonical(value) -> bytes:
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode()


class Bodies:
    """Wire bodies of the service study, one per seed, kernel omitted."""

    def __init__(self) -> None:
        use_source_tree()
        from repro.service.wire import encode_wire

        self.template = encode_wire(service_request(0))
        self.template["payload"].pop("kernel", None)

    def __call__(self, seed: int) -> bytes:
        payload = dict(self.template["payload"], seed=seed)
        return json.dumps(dict(self.template, payload=payload)).encode()


class Client:
    """A connection-per-request HTTP client for the server's address.

    ``calls`` collects ``(tag, start, end)`` of every call, on the
    clock the server's spans use, so the traced run can find the
    server's span for each call.
    """

    def __init__(self, url: str):
        parts = urlsplit(url)
        self.host, self.port = parts.hostname, parts.port
        self.calls: list = []

    def call(self, method: str, path: str, body: Optional[bytes] = None):
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=REQUEST_TIMEOUT_S
        )
        start = time.perf_counter()
        try:
            headers = {"Content-Type": "application/json"} if body else {}
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()
            tag = layers.request_tag(method, path, body or b"")
            self.calls.append((tag, start, time.perf_counter()))


class Server:
    """``python -m repro serve`` on an ephemeral port with a fresh cache.

    With ``traced`` it is started through ``traced_server.py``, which
    records layer spans in the server process and writes them to
    :attr:`spans_path` when the server stops.
    """

    def __init__(self, traced: bool = False) -> None:
        os.makedirs(SCRATCH, exist_ok=True)
        self.cache = tempfile.mkdtemp(prefix="cache-", dir=SCRATCH)
        self.spans_path = self.cache + ".spans.json"
        env = dict(os.environ, PYTHONPATH=SRC)
        launcher = (
            [os.path.join(HERE, "traced_server.py"), self.spans_path]
            if traced
            else ["-m", "repro"]
        )
        self.proc = subprocess.Popen(
            [
                sys.executable, *launcher, "serve",
                "--port", "0",
                "--workers", str(SERVICE_WORKERS),
                "--cache-dir", self.cache,
            ],
            cwd=ROOT,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        self.url = self._await_url()
        # Keep draining stderr so the server never blocks on a full pipe.
        threading.Thread(target=self.proc.stderr.read, daemon=True).start()

    def _await_url(self) -> str:
        timer = threading.Timer(BOOT_TIMEOUT_S, self.proc.kill)
        timer.start()
        try:
            for line in self.proc.stderr:
                if "serving studies on " in line:
                    return line.split("serving studies on ", 1)[1].split()[0]
        finally:
            timer.cancel()
        self.stop()
        raise RuntimeError("the service exited before it listened")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        shutil.rmtree(self.cache, ignore_errors=True)


def await_job(client: Client, location: str):
    """Poll ``location`` at a fixed interval until the job ends.

    Returns ``(status payload or None, polls)``; None on a non-2xx
    answer, a failed job or a timeout.
    """
    deadline = time.monotonic() + JOB_TIMEOUT_S
    polls = 0
    while time.monotonic() < deadline:
        time.sleep(POLL_INTERVAL_S)
        code, status = client.call("GET", location)
        polls += 1
        if code != 200 or status.get("status") == "failed":
            return None, polls
        if status.get("status") == "done":
            return status, polls
    return None, polls


def prime(url: str, bodies: Bodies, hot_seeds: List[int]) -> Dict[int, bytes]:
    """Answer the hot set once; returns each study's first result bytes."""
    client = Client(url)
    first = {}
    locations = {}
    for seed in hot_seeds:
        code, answer = client.call("POST", "/v1/studies", bodies(seed))
        if code != 202:
            raise RuntimeError(f"hot study {seed}: POST answered {code}")
        locations[seed] = answer["location"]
    for seed, location in locations.items():
        status, _ = await_job(client, location)
        if status is None:
            raise RuntimeError(f"hot study {seed} did not finish")
        first[seed] = canonical(status["result"])
    return first


def boot(bodies: Bodies, hot_seeds: List[int], traced: bool = False):
    """Start and prime a server; returns (server, first answers, seconds)."""
    started = time.perf_counter()
    server = Server(traced)
    try:
        first = prime(server.url, bodies, hot_seeds)
    except BaseException:
        server.stop()
        raise
    return server, first, time.perf_counter() - started


def schedule(seed: int, client: int):
    """The client's endless submission plan: ("hit", hot index) or ("miss", seed)."""
    rng = seed_stream(seed, f"ops-{client}")
    # Disjoint seed ranges: hot set below 2**20, each client's fresh
    # studies in its own 2**28-wide band, so no fresh study repeats.
    fresh = iter(rng.sample(range((client + 1) << 28, (client + 2) << 28), 1 << 16))
    while True:
        miss_at = rng.randrange(MISS_EVERY)
        for slot in range(MISS_EVERY):
            if slot == miss_at:
                yield "miss", next(fresh)
            else:
                yield "hit", rng.randrange(HOT_SET)


def hot_seeds_for(seed: int) -> List[int]:
    return seed_stream(seed, "hot").sample(range(1, 1 << 20), HOT_SET)


def drive(url: str, bodies: Bodies, hot_seeds: List[int], seed: int,
          seconds: float, offset: int = 0):
    """Run the closed loop for ``seconds``; returns (records, wall)."""
    records: List[dict] = []
    lock = threading.Lock()
    hot_bodies = [bodies(s) for s in hot_seeds]
    started = time.perf_counter()
    deadline = started + seconds

    def client_loop(index: int) -> None:
        client = Client(url)
        plan = schedule(seed, index)
        for _ in range(offset):
            next(plan)
        while time.perf_counter() < deadline:
            kind, value = next(plan)
            body = hot_bodies[value] if kind == "hit" else bodies(value)
            client.calls = []
            record = {
                "kind": kind, "key": value, "ok": False, "polls": 0,
                "calls": client.calls,
            }
            begun = time.perf_counter()
            try:
                code, answer = client.call("POST", "/v1/studies", body)
                if kind == "hit":
                    record["ok"] = code == 200 and answer.get("cached") is True
                    record["result"] = answer.get("result")
                elif code == 202:
                    status, record["polls"] = await_job(client, answer["location"])
                    if status is not None:
                        record["ok"] = True
                        record["result"] = status["result"]
                        record["queue_wait"] = status["started_at"] - status["created_at"]
                        record["job_s"] = status["finished_at"] - status["started_at"]
                record["code"] = code
            except (OSError, http.client.HTTPException, ValueError, KeyError) as exc:
                record["error"] = repr(exc)
            record["latency"] = time.perf_counter() - begun
            record["at"] = begun + record["latency"] - started
            with lock:
                records.append(record)

    threads = [
        threading.Thread(target=client_loop, args=(i,), daemon=True)
        for i in range(CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(seconds + JOB_TIMEOUT_S + REQUEST_TIMEOUT_S)
    return records, time.perf_counter() - started


def check(records, first: Dict[int, bytes], hot_seeds: List[int], tally: stats.Tally) -> None:
    """Output checks: cached bytes, reference KPIs, transport failures."""
    from repro.service.wire import decode_wire

    row = reference()["service"]["row"]
    for record in records:
        op = tally.attempt()
        if not record["ok"]:
            reason = record.get("error") or f"{record['kind']} answered {record.get('code')}"
            tally.fail(op, reason)
        elif record["kind"] == "hit":
            if canonical(record["result"]) != first[hot_seeds[record["key"]]]:
                tally.fail(op, "cached answer differs from the first")
        else:
            summary = decode_wire(record["result"], expect="kpi_summary")
            problems = stats.reference_failures(stats.kpi_errors(summary), row)
            if problems:
                tally.fail(op, "; ".join(problems))
            record["rhw"] = stats.relative_half_width(
                summary.cost_per_year.estimate, summary.cost_per_year.half_width
            )


def end_to_end(records, wall: float):
    """The service's metrics; rates are medians over ``RATE_WINDOWS`` windows.

    A median over windows keeps a slow spell of the host that covers
    part of the run out of the run's figure.
    """
    done = [r for r in records if r["ok"]]
    hits = stats.timing([1e3 * r["latency"] for r in done if r["kind"] == "hit"])
    misses = [r for r in done if r["kind"] == "miss"]
    miss_timing = stats.timing([1e3 * r["latency"] for r in misses])
    precision = [
        stats.time_to_precision([(r["latency"], r["rhw"])]) for r in misses
    ]
    return {
        "traj_per_s": (
            SERVICE_RUNS
            * stats.windowed_rate([r["at"] for r in misses], wall, RATE_WINDOWS),
            "1/s",
        ),
        "time_to_1pct_s": (statistics.median(precision), "s"),
        "req_per_s": (
            stats.windowed_rate([r["at"] for r in done], wall, RATE_WINDOWS),
            "1/s",
        ),
        "hit_p50_ms": (hits["p50"], "ms"),
        "miss_p50_ms": (miss_timing["p50"], "ms"),
        "miss_tail_ms": (miss_timing["tail"], "ms"),
    }, {"hits": hits, "misses": miss_timing}


def critical_path(records, trees) -> int:
    """Find the server spans each operation waited on.

    ``trees`` maps every top-level span of the server to the spans it
    encloses (:func:`layers.subtrees`).  A call is served by the
    ``StudyService.handle`` span with its tag that lies inside the
    call's interval.  A hit waits on its POST's ``handle``.  A miss
    waits on its POST's ``handle``, then on its job (the
    ``StudyRunner.summary`` span on a worker thread, tagged with the
    study seed), then on the polls that did not overlap the job; polls
    during the job wait alongside it.  Sets ``record["path"]`` (and a
    miss's ``record["job_span"]``) and returns the number of calls no span
    was found for.
    """
    handles = defaultdict(list)
    jobs = {}
    for top in trees:
        if top.name == "StudyService.handle":
            handles[top.tag].append(top)
        elif top.name == "StudyRunner.summary":
            jobs[top.tag] = top
    used = set()
    unmatched = 0
    for record in records:
        served = []
        for tag, start, end in record["calls"]:
            span = next(
                (
                    s
                    for s in handles.get(tag, ())
                    if s not in used and start <= s.start and s.end <= end
                ),
                None,
            )
            if span is None:
                unmatched += 1
            else:
                used.add(span)
                served.append(span)
        job = jobs.get(str(record["key"])) if record["kind"] == "miss" else None
        record["job_span"] = job
        if job is None:
            record["path"] = served
        else:
            record["path"] = served[:1] + [job] + [
                s for s in served[1:]
                if not job.start <= (s.start + s.end) / 2 <= job.end
            ]
    return unmatched


def within(tree, *names: str) -> float:
    """Seconds spent in spans called ``names`` inside one span's tree."""
    return sum(s.seconds for s in tree if s.name in names)


def traced(bodies, hot_seeds, seed, seconds, tally):
    """Per-layer metrics of the service workload.

    Half the run drives plain ``repro serve``; the other half drives a
    second server started through ``traced_server.py``, whose spans
    cover the live traffic.  ``tracing_overhead`` compares the two
    halves' mean latencies.  The time split is the two clients'
    combined time: each operation's time goes to the layers of the
    server spans on its critical path (:func:`critical_path`), and the
    rest (transport, the client, the queue hand-off, the poll
    interval's overshoot) is unattributed.
    """
    server, first, _ = boot(bodies, hot_seeds)
    try:
        plain, _ = drive(server.url, bodies, hot_seeds, seed, seconds / 2)
    finally:
        server.stop()
    check(plain, first, hot_seeds, tally)
    server, first, _ = boot(bodies, hot_seeds, traced=True)
    try:
        records, wall = drive(
            server.url, bodies, hot_seeds, seed, seconds / 2, offset=1 << 12
        )
    finally:
        server.stop()
    check(records, first, hot_seeds, tally)
    spans, notes = layers.load(server.spans_path)
    os.remove(server.spans_path)

    trees = layers.subtrees(spans)
    unmatched = critical_path(records, trees)
    account = {layer: 0.0 for layer in layers.LAYERS}
    for record in records:
        for top in record["path"]:
            for layer, seconds_ in layers.self_seconds(trees[top]).items():
                account[layer] += seconds_
    total = CLIENTS * wall
    unattributed = total - sum(account.values())

    done = [r for r in records if r["ok"] and r["path"]]
    hits = [r for r in done if r["kind"] == "hit"]
    misses = [r for r in done if r["kind"] == "miss"]
    hit_trees = [trees[r["path"][0]] for r in hits]
    post_trees = hit_trees + [trees[r["path"][0]] for r in misses]
    jobs = [r["job_span"] for r in misses if r["job_span"] is not None]
    job_spans = [s for job in jobs for s in trees[job]]

    def mean_within(tree_list, *names):
        return 1e3 * statistics.fmean(within(t, *names) for t in tree_list)

    metrics = {
        "service.decode_ms": (
            mean_within(post_trees, "json.loads", "app.decode_wire"), "ms"
        ),
        "service.handle_hit_ms": (
            1e3 * statistics.median(t[0].seconds for t in hit_trees), "ms"
        ),
        "service.http_ms": (
            1e3 * statistics.median(r["latency"] - r["path"][0].seconds for r in hits),
            "ms",
        ),
        "service.encode_ms": (
            mean_within(hit_trees, "app.encode_wire", "json.dumps"), "ms"
        ),
        "service.queue_wait_ms": (
            1e3 * statistics.median(r["queue_wait"] for r in misses), "ms"
        ),
        "service.job_ms": (1e3 * statistics.median(r["job_s"] for r in misses), "ms"),
        "service.polls_per_miss": (
            statistics.fmean(r["polls"] for r in misses), "count"
        ),
        "studies.key_ms": (
            mean_within(
                hit_trees, "StudyRequest.key", "StudyRequest.simulator_material"
            ),
            "ms",
        ),
        "studies.peek_ms": (mean_within(hit_trees, "StudyRunner.peek_summary"), "ms"),
        "studies.hit_ratio": (len(hits) / len(records), "ratio"),
        "studies.disk_store_ms": (
            layers.mean_ms([s for s in job_spans if s.name == "DiskCache.store"]),
            "ms",
        ),
        "executor.build_ms": (
            layers.mean_ms(
                [s for s in spans if s.name == "StudyRequest.build_simulator"]
            ),
            "ms",
        ),
        "montecarlo.driver_ms": (
            1e3 * layers.self_seconds(job_spans)["montecarlo"] / len(jobs), "ms"
        ),
    }
    metrics.update(layers.study_metrics(job_spans, job_spans, notes, len(jobs)))
    shares, report = layers.split(account, unattributed, total)
    metrics.update(shares)
    plain_mean = statistics.fmean(r["latency"] for r in plain)
    traced_mean = statistics.fmean(r["latency"] for r in records)
    metrics["tracing_overhead"] = (traced_mean / plain_mean - 1.0, "ratio")
    report["calls_without_span"] = unmatched
    report["jobs_matched"] = f"{len(jobs)}/{len(misses)}"
    return metrics, report


def run(seed: int, seconds: float, trace: bool, setups: int) -> dict:
    """Set up ``setups`` times (the last one runs); returns the outcome.

    The traced run sets up twice, once per half, and reports no
    ``setup_s``.
    """
    bodies = Bodies()
    hot_seeds = hot_seeds_for(seed)
    tally = stats.Tally()
    if trace:
        metrics, report = traced(bodies, hot_seeds, seed, seconds, tally)
    else:
        setup_times = []
        for _ in range(setups - 1):
            server, _, took = boot(bodies, hot_seeds)
            server.stop()
            setup_times.append(took)
        server, first, took = boot(bodies, hot_seeds)
        setup_times.append(took)
        try:
            records, wall = drive(server.url, bodies, hot_seeds, seed, seconds)
        finally:
            server.stop()
        check(records, first, hot_seeds, tally)
        metrics, report = end_to_end(records, wall)
        metrics["setup_s"] = (statistics.median(setup_times), "s")
        rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        metrics["peak_rss_mb"] = (stats.peak_rss_mb(0, rss, 1), "MB")
        report["setups"] = setup_times
    return {
        "metrics": metrics,
        "report": report,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "reasons": tally.reasons(),
    }
