"""Analysis-as-a-service: the HTTP application over the study runner.

Endpoints (all JSON unless noted):

``POST /v1/studies``
    Body: a ``study_request`` wire envelope
    (:mod:`repro.service.wire`).  A request whose summary is already
    cached is answered **synchronously** with ``200`` and the result —
    the :class:`~repro.studies.key.StudyKey` digest is the HTTP cache
    key, and cached submissions never touch the queue.  Otherwise the
    job is enqueued: ``202`` with a job id (a resubmission identical
    to a queued/running job attaches to it instead of re-simulating).
    A full queue answers ``429`` with a ``Retry-After`` header.

``GET /v1/studies/{id}``
    Job status; includes the wire-encoded result once ``done``.

``GET /v1/studies/{id}/events``
    The job's progress stream as NDJSON —
    :class:`~repro.observability.progress.ProgressEvent` schema v1
    records, terminated by one ``{"record": "job", ...}`` line.

``GET /healthz``
    Liveness plus queue depth.

``GET /metrics``
    Prometheus text exposition of the service's registry (the same
    :func:`~repro.observability.exposition.render_prometheus` as the
    ``metrics-serve`` verb), including the ``study.*`` cache counters.

The app itself is transport-free (``handle()`` in, ``HttpResponse``
out); :func:`serve_app` mounts it on the shared
:class:`~repro.service.http.AppServer`.
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from typing import Any, Dict, Optional, Tuple

from repro.observability.exposition import CONTENT_TYPE, render_prometheus
from repro.observability.instrumentation import Instrumentation
from repro.service.http import AppServer, HttpResponse
from repro.service.jobs import Job, JobQueue, QueueFull
from repro.service.wire import (
    WIRE_SCHEMA_VERSION,
    WireError,
    decode_wire,
    encode_wire,
)
from repro.studies.runner import StudyRequest, StudyRunner

__all__ = ["StudyService", "serve_app"]

_JSON = "application/json"
_NDJSON = "application/x-ndjson"

#: Kernel-routing memo bound (simulator-material digests retained).
_FALLBACK_MEMO_MAX = 256
_UNCLASSIFIED = object()


def _json_bytes(payload: Any) -> bytes:
    # sort_keys + fixed separators: the same result object always
    # renders to the same bytes, which is how clients (and the test
    # suite) can assert that a cached response equals a fresh one.
    return (
        json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode("utf-8")


def _json_response(
    status: int, payload: Any, headers: Tuple[Tuple[str, str], ...] = ()
) -> HttpResponse:
    return HttpResponse(status, _json_bytes(payload), _JSON, headers)


def _error(status: int, message: str, **extra: Any) -> HttpResponse:
    body = {"error": message}
    body.update(extra)
    headers = ()
    if "retry_after" in extra:
        headers = (("Retry-After", f"{extra['retry_after']:g}"),)
    return _json_response(status, body, headers)


class StudyService:
    """The routable analysis-service application.

    Parameters
    ----------
    runner:
        The shared :class:`StudyRunner`, used as given; when omitted,
        one with no disk cache whose pool of
        :func:`~repro.simulation.parallel.default_process_count`
        workers simulates every study (in the job thread on a 1-CPU
        host).  Its memo/disk caches are what make resubmissions
        synchronous.  A pooled runner's workers start here, before
        any thread of the service does.
    max_pending / workers:
        Queue bound and worker-thread count (see
        :class:`~repro.service.jobs.JobQueue`).
    retry_after:
        Seconds advertised in the ``Retry-After`` header of a ``429``.
    instrumentation:
        Metrics sink backing ``/metrics``; created when omitted and
        shared with the runner so ``study.*`` counters surface too.
    """

    def __init__(
        self,
        runner: Optional[StudyRunner] = None,
        *,
        max_pending: int = 64,
        workers: int = 2,
        retry_after: float = 1.0,
        instrumentation: Optional[Instrumentation] = None,
    ):
        self.instrumentation = (
            instrumentation if instrumentation is not None else Instrumentation()
        )
        if runner is None:
            runner = StudyRunner(
                processes=None,
                parallel_threshold=1,
                instrumentation=self.instrumentation,
            )
        elif runner.instrumentation is None:
            runner.instrumentation = self.instrumentation
        self.runner = runner
        # Fork the pool's workers before the job threads exist.
        runner.start()
        self.jobs = JobQueue(
            runner,
            max_pending=max_pending,
            workers=workers,
            retry_after=retry_after,
        )
        # simulator-material digest -> vectorized fallback reason (or
        # None).  The classification is a pure function of the model,
        # so repeat submissions skip the prototype walk entirely.
        self._fallback_memo: "OrderedDict[str, Optional[str]]" = OrderedDict()
        self._fallback_memo_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def handle(
        self, method: str, path: str, query: Dict[str, str], body: bytes
    ) -> HttpResponse:
        """Serve one request (transport-free entry point)."""
        self.instrumentation.count("service.requests")
        if path == "/healthz":
            return self._healthz(method)
        if path == "/metrics":
            return self._metrics(method)
        if path == "/v1/studies":
            if method != "POST":
                return _error(405, "use POST to submit a study")
            return self._submit(body)
        if path.startswith("/v1/studies/"):
            rest = path[len("/v1/studies/"):]
            if method != "GET":
                return _error(405, "study resources are read-only")
            if rest.endswith("/events"):
                return self._events(rest[: -len("/events")].rstrip("/"))
            return self._status(rest)
        return _error(
            404,
            "unknown path; try POST /v1/studies, GET /v1/studies/{id}, "
            "GET /v1/studies/{id}/events, /healthz or /metrics",
        )

    def close(self) -> None:
        """Drain the queue, stop the workers, shut the runner down."""
        self.jobs.close()
        self.runner.close()

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------
    def _submit(self, body: bytes) -> HttpResponse:
        try:
            data = json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            self.instrumentation.count("service.bad_requests")
            return _error(400, f"request body is not valid JSON: {exc}")
        try:
            request = decode_wire(data, expect="study_request")
        except WireError as exc:
            self.instrumentation.count("service.bad_requests")
            return _error(400, str(exc), schema_version=WIRE_SCHEMA_VERSION)
        payload_fields = data.get("payload")
        request, kernel_fallback = self._route_kernel(
            request,
            payload_fields if isinstance(payload_fields, dict) else {},
        )
        digest = request.key().digest
        # Cache fast path: the StudyKey digest is the HTTP cache key.
        # A hit is answered on the request thread — no queue, no job.
        cached = self.runner.peek_summary(request)
        if cached is not None:
            self.instrumentation.count("service.cache_hits")
            return _json_response(
                200,
                {
                    "status": "done",
                    "cached": True,
                    "study_key": digest,
                    "kernel": request.kernel,
                    "kernel_fallback_reason": kernel_fallback,
                    "result": encode_wire(cached),
                },
            )
        try:
            job, created = self.jobs.submit(
                request, kernel_fallback=kernel_fallback
            )
        except QueueFull as exc:
            self.instrumentation.count("service.rejected")
            return _error(
                429,
                str(exc),
                retry_after=exc.retry_after,
                pending=exc.pending,
            )
        self.instrumentation.count(
            "service.jobs_created" if created else "service.jobs_joined"
        )
        return _json_response(
            202,
            {
                "job_id": job.id,
                "status": job.status,
                "cached": False,
                "deduplicated": not created,
                "study_key": digest,
                "kernel": job.kernel,
                "kernel_fallback_reason": job.kernel_fallback,
                "location": f"/v1/studies/{job.id}",
                "events": f"/v1/studies/{job.id}/events",
            },
        )

    def _route_kernel(
        self, request: StudyRequest, payload: Dict[str, Any]
    ) -> Tuple[StudyRequest, Optional[str]]:
        """Default eligible submissions to the vectorized kernel.

        A submission that *names* a kernel keeps it — explicit choice
        wins.  One that omits the field is upgraded to the lockstep
        kernel when :func:`~repro.simulation.vectorized.
        vectorized_fallback_reason` clears the model, and left on the
        object engine (with the reason surfaced) otherwise.  The
        rewrite happens before the study key is computed, so the
        upgraded request gets the vectorized cache namespace — it
        never aliases object-engine artifacts.
        """
        from dataclasses import replace

        from repro.simulation.vectorized import vectorized_fallback_reason
        from repro.studies.key import StudyKey

        explicit = "kernel" in payload
        if explicit and request.kernel != "vectorized":
            return request, None
        try:
            material = StudyKey.from_material(
                request.simulator_material()
            ).digest
            with self._fallback_memo_lock:
                memoized = self._fallback_memo.get(material, _UNCLASSIFIED)
            if memoized is not _UNCLASSIFIED:
                reason = memoized
            else:
                reason = vectorized_fallback_reason(
                    self.runner.prototype(request)
                )
                with self._fallback_memo_lock:
                    while len(self._fallback_memo) >= _FALLBACK_MEMO_MAX:
                        self._fallback_memo.popitem(last=False)
                    self._fallback_memo[material] = reason
        except Exception:
            # A model the simulator rejects fails identically on either
            # kernel; let the job (or the synchronous cache path)
            # surface the real error.
            return request, None
        if explicit:
            return request, reason
        if reason is not None:
            return request, reason
        self.instrumentation.count("service.kernel_upgrades")
        return replace(request, kernel="vectorized"), None

    def _status(self, job_id: str) -> HttpResponse:
        job = self.jobs.get(job_id)
        if job is None:
            return _error(404, f"no such job: {job_id!r}")
        payload: Dict[str, Any] = {
            "job_id": job.id,
            "status": job.status,
            "cached": False,
            "study_key": job.digest,
            "kernel": job.kernel,
            "kernel_fallback_reason": job.kernel_fallback,
            "created_at": job.created_at,
            "started_at": job.started_at,
            "finished_at": job.finished_at,
        }
        if job.status == "done":
            payload["result"] = encode_wire(job.result)
        elif job.status == "failed":
            payload["error"] = job.error
        return _json_response(200, payload)

    def _events(self, job_id: str) -> HttpResponse:
        job = self.jobs.get(job_id)
        if job is None:
            return _error(404, f"no such job: {job_id!r}")
        records = list(job.events)
        records.append(
            {
                "record": "job",
                "job_id": job.id,
                "status": job.status,
                "events": len(records),
            }
        )
        body = "".join(
            json.dumps(record, sort_keys=True) + "\n" for record in records
        ).encode("utf-8")
        return HttpResponse(200, body, _NDJSON)

    def _healthz(self, method: str) -> HttpResponse:
        if method != "GET":
            return _error(405, "use GET")
        payload = {"status": "ok", "jobs": self.jobs.stats()}
        return _json_response(200, payload)

    def _metrics(self, method: str) -> HttpResponse:
        if method != "GET":
            return _error(405, "use GET")
        body = render_prometheus(
            self.instrumentation.registry.to_dict()
        ).encode("utf-8")
        return HttpResponse(200, body, CONTENT_TYPE)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"StudyService(jobs={self.jobs.stats()})"


def serve_app(
    runner: Optional[StudyRunner] = None,
    *,
    host: str = "127.0.0.1",
    port: int = 8177,
    max_pending: int = 64,
    workers: int = 2,
    retry_after: float = 1.0,
    instrumentation: Optional[Instrumentation] = None,
) -> AppServer:
    """Mount a :class:`StudyService` on the shared HTTP stack.

    Returns the (not yet started) :class:`AppServer`; call
    :meth:`~repro.service.http.AppServer.start` for a background
    thread (tests, embedding) or
    :meth:`~repro.service.http.AppServer.serve_forever` to block (the
    ``python -m repro serve`` verb).  Stopping the server closes the
    service (queue drained, runner pool shut down).

    >>> import repro
    >>> server = repro.serve_app(port=0).start()
    >>> server.url  # doctest: +SKIP
    'http://127.0.0.1:54321'
    >>> server.stop()
    """
    service = StudyService(
        runner,
        max_pending=max_pending,
        workers=workers,
        retry_after=retry_after,
        instrumentation=instrumentation,
    )
    return AppServer(service, host=host, port=port)
