"""The robustness evaluation server: request lifecycle, workers, transport.

:class:`RobustnessServer` is the in-process core: requests submitted via
:meth:`~RobustnessServer.submit` are validated, split into bucket-sized
:class:`~repro.serve.queueing.WorkItem` chunks (coalescable kinds) or whole
jobs (everything else), executed on worker threads, and resolved as response
dicts through a :class:`concurrent.futures.Future` — responses complete in
*execution* order, not arrival order, which is what lets one slow
robustness job overlap with a stream of classify batches.

Request kinds:

* ``classify`` — logits/predictions for a batch of images.  Always
  coalesced: chunks from different requests share one padded bucket batch
  and one compiled plan replay.
* ``attack`` — adversarial examples under one :class:`AttackSpec`.
  Coalesced only for per-example-deterministic specs (FGSM, NIFGSM,
  MIFGSM, CW, DeepFool, PGD with ``random_start=False``); per-batch
  randomness (random-start PGD, FAB) makes results depend on batch
  composition, so those run as whole per-request jobs with the documented
  semantics ``spec.build(model).attack(images, labels)`` on a fresh
  instance.
* ``robustness`` — a full :func:`repro.evaluation.evaluate_robustness`
  suite, read-through-cached in the :class:`ArtifactStore` by
  ``(checkpoint hash, suite, options, data digest)``.
* ``stats`` — telemetry snapshot (queue, batches, pad waste, latency
  percentiles, per-model plan-cache counters).
* ``health`` — SLO surface, resolved synchronously in :meth:`submit` (it
  never touches the queue, so it answers even when the server is
  overloaded): ok/degraded/overloaded from worker heartbeats, queue
  utilization and the rolling error-rate window.

SLO machinery: ``classify``/``attack``/``robustness`` requests may carry a
``deadline_ms`` budget — work whose deadline expires while queued is
rejected with a counted ``deadline_exceeded`` error instead of occupying a
batch slot — and a ``max_queue`` bound sheds new work with an
``overloaded`` error once the queue is at capacity.  When the server owns
a store, each serve session persists a RunRecord on :meth:`stop` (see
:mod:`repro.obs.records`).

Byte-identity contract: coalescing, padding and request interleaving never
change a request's results — every kernel in the stack is row-independent,
so a request's rows compute identically inside any padded batch (the
property tests in ``tests/serve`` assert bitwise equality against the
offline engine).  Dropping expired co-riders from a batch preserves it too:
the survivors are re-padded to the smallest fitting bucket, which is the
same row-independent computation the offline engine performs.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from concurrent.futures import Future
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..attacks.engine import AttackSpec
from ..evaluation.robustness import evaluate_robustness
from ..nn import get_default_dtype
from ..obs import records as _records, trace as _trace
from .models import ModelPool
from .protocol import (
    ProtocolError,
    decode_payload,
    encode_payload,
    robustness_cache_key,
    trace_carrier,
)
from .queueing import Batch, BucketConfig, QueueFull, RequestQueue, WorkItem
from .telemetry import ServerStats

__all__ = ["RobustnessServer", "is_coalescable", "start_socket_server"]

#: attacks whose per-example results are independent of batch composition.
_COALESCABLE_ATTACKS = frozenset({"fgsm", "nifgsm", "mifgsm", "cw", "deepfool"})

#: evaluate_robustness keywords a robustness request may override.
_ROBUSTNESS_OPTIONS = frozenset({"batch_size", "early_exit", "cascade", "compile"})


def is_coalescable(spec: AttackSpec) -> bool:
    """Whether batches of this attack may mix examples from many requests.

    True exactly when the attack perturbs each example independently of the
    rest of its batch *and* draws no randomness: FGSM / NIFGSM / MIFGSM /
    CW / DeepFool always, PGD only with ``random_start=False``.  Random
    draws are batch-shaped, so a stochastic attack coalesced with strangers
    would return different bytes than the same request served alone.
    """
    if spec.name in _COALESCABLE_ATTACKS:
        return True
    if spec.name == "pgd":
        return spec.get("random_start", True) is False
    return False


class _PendingRequest:
    """Server-side bookkeeping for one in-flight request."""

    def __init__(
        self,
        request_id: Any,
        kind: str,
        model_id: Optional[str],
        images: Optional[np.ndarray],
        labels: Optional[np.ndarray],
        future: "Future[Dict[str, Any]]",
        stats: ServerStats,
        spec: Optional[AttackSpec] = None,
        suite: Optional[List[Dict[str, Any]]] = None,
        options: Optional[Dict[str, Any]] = None,
        return_logits: bool = False,
        trace_parent: Optional[Dict[str, str]] = None,
        deadline_ms: Optional[float] = None,
    ) -> None:
        self.id = request_id
        self.kind = kind
        self.model_id = model_id
        self.images = images
        self.labels = labels
        self.spec = spec
        self.suite = suite
        self.options = options
        self.return_logits = return_logits
        self.future = future
        self.enqueued = time.monotonic()
        self.deadline_ms = deadline_ms
        #: absolute monotonic deadline; work still queued past it is
        #: rejected instead of executed.
        self.deadline = (
            self.enqueued + deadline_ms / 1e3 if deadline_ms is not None else None
        )
        #: span parent for worker-side spans: the submitting thread's open
        #: span (in-process callers) or the request's wire carrier.
        self.trace_parent = trace_parent if trace_parent is not None else _trace.carrier()
        self._stats = stats
        self._lock = threading.Lock()
        self._chunks: Dict[int, Dict[str, np.ndarray]] = {}
        self._remaining = 0
        self._done = False

    @property
    def examples(self) -> int:
        return 0 if self.images is None else len(self.images)

    @property
    def done(self) -> bool:
        with self._lock:
            return self._done

    def expired(self, now: Optional[float] = None) -> bool:
        if self.deadline is None:
            return False
        return (time.monotonic() if now is None else now) >= self.deadline

    def expect_chunks(self, count: int) -> None:
        self._remaining = count

    def complete_chunk(self, start: int, result: Dict[str, np.ndarray]) -> None:
        with self._lock:
            if self._done:
                return
            self._chunks[start] = result
            self._remaining -= 1
            if self._remaining > 0:
                return
            self._done = True
        assembled = {
            key: np.concatenate([self._chunks[s][key] for s in sorted(self._chunks)])
            for key in self._chunks[next(iter(self._chunks))]
        }
        self._finish(assembled)

    def resolve(self, result: Dict[str, Any]) -> None:
        with self._lock:
            if self._done:
                return
            self._done = True
        self._finish(result)

    def fail(self, message: str, code: Optional[str] = None) -> None:
        """Resolve with an error response (idempotent across chunks).

        ``code`` is a machine-readable discriminator (``deadline_exceeded``,
        ``overloaded``) clients map to typed exceptions; the matching SLO
        counters increment here, inside the done-guard, so a multi-chunk
        request counts once no matter how many chunks observe the expiry.
        """
        with self._lock:
            if self._done:
                return
            self._done = True
        if code == "deadline_exceeded":
            self._stats.record_deadline_exceeded()
        self._stats.record_request(
            self.kind, time.monotonic() - self.enqueued, self.examples, error=True
        )
        response = {"id": self.id, "ok": False, "error": message}
        if code is not None:
            response["code"] = code
        self.future.set_result(response)

    def _finish(self, result: Dict[str, Any]) -> None:
        self._stats.record_request(
            self.kind, time.monotonic() - self.enqueued, self.examples
        )
        self.future.set_result(
            {"id": self.id, "ok": True, "result": encode_payload(result)}
        )


class _Job:
    __slots__ = ("request",)

    def __init__(self, request: _PendingRequest) -> None:
        self.request = request


class RobustnessServer:
    """Dynamic-batching evaluation server over the compiled plan cache.

    Parameters
    ----------
    store:
        :class:`~repro.experiments.store.ArtifactStore` (or ``None``) used
        to resolve checkpoints by training-hash prefix and to read-through
        cache robustness reports.  In-process modules may also be attached
        with :meth:`register`.
    buckets:
        The batch sizes requests are padded/grouped to — every served batch
        hits one of these plan signatures.
    max_wait_ms:
        How long a partial batch may wait for co-riders before it is flushed
        padded (the latency bound of the scheduler).
    workers:
        Worker threads; each owns its own compiled views (plans are
        single-threaded), all share one queue, model pool and stats.
    model_capacity:
        LRU bound on concurrently-pinned checkpoints.
    max_queue:
        Admission-control bound on queue depth (examples + jobs); new
        work past it is shed with an ``overloaded`` error.  ``None``
        (default) is unbounded.
    stall_after_s:
        A worker whose last heartbeat is older than this counts as
        stalled in the ``health`` report.
    window_s:
        Width of the rolling latency/error SLO window.
    """

    def __init__(
        self,
        store=None,
        buckets=(4, 8, 16, 32),
        max_wait_ms: float = 5.0,
        workers: int = 2,
        model_capacity: int = 4,
        max_queue: Optional[int] = None,
        stall_after_s: float = 5.0,
        window_s: float = 60.0,
    ) -> None:
        if workers < 1:
            raise ValueError("at least one worker thread is required")
        self.store = store
        self.buckets = buckets if isinstance(buckets, BucketConfig) else BucketConfig(buckets)
        self.queue = RequestQueue(
            self.buckets, max_wait=max_wait_ms / 1e3, max_depth=max_queue
        )
        self.pool = ModelPool(store=store, capacity=model_capacity, buckets=self.buckets)
        self.stats = ServerStats(window_s=window_s)
        self.workers = int(workers)
        self.stall_after_s = float(stall_after_s)
        self._heartbeats: Dict[int, float] = {}
        self._threads: List[threading.Thread] = []
        self._stop = threading.Event()
        self._started = False
        self._run_window: Optional[_records.RunWindow] = None

    # -- lifecycle ---------------------------------------------------------------
    def start(self) -> "RobustnessServer":
        if self._started:
            return self
        self._started = True
        self._stop.clear()
        if self.store is not None and self._run_window is None:
            self._run_window = _records.RunWindow(
                "serve", label=self.stats.name
            ).open()
        now = time.monotonic()
        for worker_id in range(self.workers):
            self._heartbeats[worker_id] = now
            thread = threading.Thread(
                target=self._worker_loop,
                args=(worker_id,),
                name=f"repro-serve-{worker_id}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        return self

    def stop(self) -> None:
        if not self._started:
            return
        # Health reflects the live session — capture it before the workers
        # are told to wind down, for the session's RunRecord.
        final_health = self._health_result() if self._run_window is not None else None
        self._stop.set()
        self.queue.close()
        for thread in self._threads:
            thread.join(timeout=5.0)
        self._threads.clear()
        self._started = False
        window, self._run_window = self._run_window, None
        if window is not None:
            window.close()
            record = window.build(
                stats=self.stats.snapshot(),
                health=final_health,
                models=self.pool.stats(),
                profile=self.pool.profiles(),
            )
            try:
                _records.save_record(record, store=self.store)
            except OSError:
                pass  # a read-only store must not break shutdown

    def __enter__(self) -> "RobustnessServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def register(self, name: str, module) -> None:
        """Serve an in-process module (live weights) under ``name``."""
        self.pool.register(name, module)

    # -- submission --------------------------------------------------------------
    def submit(self, message: Dict[str, Any]) -> "Future[Dict[str, Any]]":
        """Validate and enqueue one request; the future resolves to the response.

        The ``serve.request`` span covers parse + enqueue; the worker-side
        ``serve.batch`` / ``serve.job`` spans parent onto it through the
        carrier captured at parse time (or one supplied on the wire).
        """
        future: "Future[Dict[str, Any]]" = Future()
        request_id = message.get("id") if isinstance(message, dict) else None
        with _trace.span("serve.request"):
            try:
                request = self._parse(message, future)
            except (ProtocolError, KeyError, TypeError, ValueError) as error:
                future.set_result(
                    {"id": request_id, "ok": False, "error": str(error)}
                )
                return future
            if request.kind == "health":
                # Resolved inline so the health surface answers even when
                # the queue is full and every worker is busy or stalled.
                request.resolve(self._health_result())
                return future
            try:
                if request.kind == "classify" or (
                    request.kind == "attack" and is_coalescable(request.spec)
                ):
                    self._enqueue_items(request)
                elif request.kind == "stats":
                    # Telemetry stays reachable under overload.
                    self.queue.put_job(_Job(request), force=True)
                else:
                    self.queue.put_job(_Job(request))
            except QueueFull as error:
                self.stats.record_shed(request.kind)
                request.fail(str(error), code="overloaded")
            return future

    def handle(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Blocking convenience wrapper around :meth:`submit`."""
        return self.submit(message).result()

    def _parse(self, message: Dict[str, Any], future: Future) -> _PendingRequest:
        if not isinstance(message, dict):
            raise ProtocolError("request must be a JSON object")
        kind = message.get("kind")
        if kind not in ("classify", "attack", "robustness", "stats", "health"):
            raise ProtocolError(f"unknown request kind {kind!r}")
        payload = decode_payload(message)
        wire_carrier = trace_carrier(message)
        deadline_ms = payload.get("deadline_ms")
        if deadline_ms is not None:
            if not isinstance(deadline_ms, (int, float)) or isinstance(
                deadline_ms, bool
            ) or not deadline_ms > 0:
                raise ProtocolError("'deadline_ms' must be a positive number")
            deadline_ms = float(deadline_ms)
        if kind in ("stats", "health"):
            return _PendingRequest(
                payload.get("id"), kind, None, None, None, future, self.stats,
                trace_parent=wire_carrier,
            )
        model_id = payload.get("model")
        if not model_id or not isinstance(model_id, str):
            raise ProtocolError("request needs a 'model' (hash prefix or registered name)")
        images = payload.get("images")
        if not isinstance(images, np.ndarray) or images.ndim < 2 or not len(images):
            raise ProtocolError("request needs a non-empty 'images' array")
        images = np.ascontiguousarray(images, dtype=get_default_dtype())
        labels = payload.get("labels")
        if kind in ("attack", "robustness"):
            if labels is None:
                raise ProtocolError(f"'{kind}' requests need a 'labels' array")
            labels = np.asarray(labels, dtype=np.int64).reshape(-1)
            if len(labels) != len(images):
                raise ProtocolError("images and labels disagree on batch size")
        else:
            labels = None
        spec = None
        if kind == "attack":
            spec_data = payload.get("spec")
            if not isinstance(spec_data, dict):
                raise ProtocolError("'attack' requests need a 'spec' object")
            spec = AttackSpec.from_dict(spec_data)
        suite = None
        options = None
        if kind == "robustness":
            suite = payload.get("suite")
            if suite is not None:
                suite = [AttackSpec.from_dict(entry).as_dict() for entry in suite]
            options = dict(payload.get("options") or {})
            unknown = set(options) - _ROBUSTNESS_OPTIONS
            if unknown:
                raise ProtocolError(f"unknown robustness options: {sorted(unknown)}")
        return _PendingRequest(
            payload.get("id"),
            kind,
            model_id,
            images,
            labels,
            future,
            self.stats,
            spec=spec,
            suite=suite,
            options=options,
            return_logits=bool(payload.get("return_logits", False)),
            trace_parent=wire_carrier,
            deadline_ms=deadline_ms,
        )

    def _enqueue_items(self, request: _PendingRequest) -> None:
        spec_json = request.spec.to_json() if request.spec is not None else None
        key = (
            request.model_id,
            request.kind,
            spec_json,
            tuple(request.images.shape[1:]),
            request.images.dtype.str,
        )
        chunk = self.buckets.max_size
        n = len(request.images)
        starts = list(range(0, n, chunk))
        request.expect_chunks(len(starts))
        items = [
            WorkItem(request=request, start=start, count=min(chunk, n - start))
            for start in starts
        ]
        self.queue.put_items(key, items)

    # -- workers -----------------------------------------------------------------
    def _worker_loop(self, worker_id: int) -> None:
        while not self._stop.is_set():
            self._heartbeats[worker_id] = time.monotonic()
            work = self.queue.next_work(timeout=0.05)
            if work is None:
                continue
            what, payload = work
            if what == "batch":
                self._run_batch(worker_id, payload)
            else:
                self._run_job(worker_id, payload)
            self._heartbeats[worker_id] = time.monotonic()

    def _run_batch(self, worker_id: int, batch: Batch) -> None:
        model_id, kind, spec_json, example_shape, dtype_str = batch.key
        with _trace.attach(batch.items[0].request.trace_parent):
            with _trace.span(
                "serve.batch",
                {"kind": kind, "examples": batch.examples, "pad_to": batch.pad_to}
                if _trace.enabled()
                else None,
            ):
                self._run_batch_inner(worker_id, batch)

    def _live_items(self, batch: Batch) -> List[WorkItem]:
        """The batch items still worth executing: deadline-expired requests
        are failed (counted once per request) and requests already resolved
        (an earlier chunk expired) are skipped, so neither occupies a slot.
        """
        now = time.monotonic()
        live: List[WorkItem] = []
        for item in batch.items:
            request = item.request
            if request.expired(now):
                request.fail(
                    f"deadline_ms={request.deadline_ms:g} expired before execution",
                    code="deadline_exceeded",
                )
            elif not request.done:
                live.append(item)
        return live

    def _run_batch_inner(self, worker_id: int, batch: Batch) -> None:
        model_id, kind, spec_json, example_shape, dtype_str = batch.key
        items = self._live_items(batch)
        if not items:
            return
        examples = sum(item.count for item in items)
        # Survivors of a deadline cull re-fit to the smallest bucket — the
        # identical padding computation the offline engine would perform.
        pad_to = (
            batch.pad_to if examples == batch.examples else self.buckets.fit(examples)
        )
        now = time.monotonic()
        self.stats.record_batch(
            examples, pad_to, [now - item.enqueued for item in items]
        )
        try:
            entry = self.pool.get(model_id)
        except Exception as error:
            for item in items:
                item.request.fail(str(error))
            return
        images = np.zeros((pad_to,) + example_shape, dtype=np.dtype(dtype_str))
        labels = np.zeros(pad_to, dtype=np.int64)
        offsets: List[Tuple[WorkItem, int]] = []
        cursor = 0
        for item in items:
            images[cursor : cursor + item.count] = item.images
            if item.labels is not None:
                labels[cursor : cursor + item.count] = item.labels
            offsets.append((item, cursor))
            cursor += item.count
        try:
            view = entry.view(worker_id, images, self.buckets)
            if kind == "classify":
                logits = view(images)
                predictions = np.argmax(logits, axis=1)
                for item, offset in offsets:
                    result = {
                        "predictions": predictions[offset : offset + item.count].copy()
                    }
                    if item.request.return_logits:
                        result["logits"] = logits[offset : offset + item.count].copy()
                    item.request.complete_chunk(item.start, result)
            else:
                spec = AttackSpec.from_json(spec_json)
                attack = spec.build(entry.module).use_compiled(view)
                adversarial = attack.attack(images, labels)
                predictions = view.predict(adversarial)
                for item, offset in offsets:
                    item.request.complete_chunk(
                        item.start,
                        {
                            "adversarial": adversarial[
                                offset : offset + item.count
                            ].copy(),
                            "predictions": predictions[
                                offset : offset + item.count
                            ].copy(),
                        },
                    )
        except Exception as error:
            for item in items:
                item.request.fail(f"{type(error).__name__}: {error}")

    def _run_job(self, worker_id: int, job: _Job) -> None:
        request = job.request
        if request.expired():
            request.fail(
                f"deadline_ms={request.deadline_ms:g} expired before execution",
                code="deadline_exceeded",
            )
            return
        self.stats.record_job()
        with _trace.attach(request.trace_parent):
            with _trace.span(
                "serve.job",
                {"kind": request.kind} if _trace.enabled() else None,
            ):
                try:
                    if request.kind == "stats":
                        request.resolve(self._stats_result())
                    elif request.kind == "robustness":
                        request.resolve(self._run_robustness(request))
                    else:
                        request.resolve(self._run_single_attack(worker_id, request))
                except Exception as error:
                    request.fail(f"{type(error).__name__}: {error}")

    def _run_single_attack(
        self, worker_id: int, request: _PendingRequest
    ) -> Dict[str, Any]:
        """A stochastic attack request, served whole (unpadded, fresh instance)."""
        entry = self.pool.get(request.model_id)
        view = entry.view(worker_id, request.images, self.buckets)
        attack = request.spec.build(entry.module).use_compiled(view)
        adversarial = attack.attack(request.images, request.labels)
        predictions = view.predict(adversarial)
        return {"adversarial": adversarial, "predictions": predictions.copy()}

    def _run_robustness(self, request: _PendingRequest) -> Dict[str, Any]:
        entry = self.pool.get(request.model_id)
        options = dict(request.options or {})
        options.setdefault("batch_size", self.buckets.max_size)
        options.setdefault("compile", True)
        cache_key = None
        if self.store is not None and not entry.live:
            cache_key = robustness_cache_key(
                entry.model_id, request.suite, options, request.images, request.labels
            )
            record = self.store.load_serve_report(cache_key)
            hit = record is not None
            self.stats.record_report_cache(hit)
            if hit:
                return {"report": record["report"], "cached": True, "key": cache_key}
        suite = (
            None
            if request.suite is None
            else [AttackSpec.from_dict(entry_) for entry_ in request.suite]
        )
        # Robustness evaluation instruments the *shared* module (forward-pass
        # counters are installed on it), so concurrent suites against the
        # same entry serialize here; batched classify/attack traffic on the
        # workers' own compiled views keeps flowing.
        with entry.engine_lock:
            report = evaluate_robustness(
                entry.module,
                request.images,
                request.labels,
                attacks=suite,
                method_name=request.model_id,
                **options,
            )
        result_dict = report.result.as_dict()
        if cache_key is not None:
            self.store.save_serve_report(
                cache_key,
                {
                    "report": result_dict,
                    "model": entry.model_id,
                    "suite": request.suite,
                    "options": options,
                },
            )
        return {"report": result_dict, "cached": False, "key": cache_key}

    def _stats_result(self) -> Dict[str, Any]:
        return {
            "server": self.stats.snapshot(),
            "models": self.pool.stats(),
            #: per-model, per-signature executor profiles ({} until the obs
            #: profiler has seen a replay — see repro.obs.profiler).
            "profile": self.pool.profiles(),
            "queue_depth": self.queue.depth,
            "buckets": list(self.buckets.sizes),
            "workers": self.workers,
        }

    # -- health / SLOs -----------------------------------------------------------
    #: rolling error rate at/above which the server reports ``degraded``.
    DEGRADED_ERROR_RATE = 0.5
    #: queue utilization at/above which the server reports ``degraded``.
    DEGRADED_QUEUE_UTILIZATION = 0.8

    def health(self) -> Dict[str, Any]:
        """The SLO health report (also served as the ``health`` kind)."""
        return self._health_result()

    def _health_result(self) -> Dict[str, Any]:
        now = time.monotonic()
        ages = {
            worker_id: now - beat for worker_id, beat in sorted(self._heartbeats.items())
        }
        stalled = [
            worker_id for worker_id, age in ages.items() if age >= self.stall_after_s
        ]
        depth = self.queue.depth
        max_depth = self.queue.max_depth
        utilization = depth / max_depth if max_depth else 0.0
        window = self.stats.window.snapshot()
        queue_full = max_depth is not None and depth >= max_depth
        all_stalled = self._started and len(stalled) == len(self._heartbeats) > 0
        if all_stalled or queue_full:
            status = "overloaded"
        elif (
            stalled
            or window["error_rate"] >= self.DEGRADED_ERROR_RATE
            or utilization >= self.DEGRADED_QUEUE_UTILIZATION > 0
        ):
            status = "degraded"
        else:
            status = "ok"
        pool_stats = self.pool.stats()
        return {
            "status": status,
            "started": self._started,
            "workers": {
                "configured": self.workers,
                "stalled": stalled,
                "stall_after_s": self.stall_after_s,
                "heartbeat_age_s": {str(k): v for k, v in ages.items()},
            },
            "queue": {
                "depth": depth,
                "max_depth": max_depth,
                "utilization": utilization,
            },
            "window": window,
            "counters": {
                "errors": self.stats.errors,
                "shed": self.stats.shed,
                "deadline_exceeded": self.stats.deadline_exceeded,
            },
            "pool": {
                "models": len(pool_stats),
                "allocations": self.pool.pool_allocations(),
            },
        }


# --------------------------------------------------------------------------- #
# asyncio socket transport (newline-delimited JSON)
# --------------------------------------------------------------------------- #
#: per-line read limit — base64 image batches dwarf asyncio's 64 KiB default.
_READ_LIMIT = 256 * 1024 * 1024


async def start_socket_server(
    server: RobustnessServer, host: str = "127.0.0.1", port: int = 0
):
    """Expose a started :class:`RobustnessServer` over a TCP socket.

    One JSON request per line; responses stream back **as they complete**
    (out of order relative to arrival — clients correlate by ``id``).
    Returns the ``asyncio.Server``; its first socket's ``getsockname()``
    reveals the bound port when ``port=0``.
    """
    loop = asyncio.get_running_loop()

    async def handle_connection(reader, writer):
        out: "asyncio.Queue[Optional[Dict[str, Any]]]" = asyncio.Queue()

        async def drain() -> None:
            while True:
                response = await out.get()
                if response is None:
                    break
                try:
                    writer.write((json.dumps(response) + "\n").encode("utf-8"))
                    await writer.drain()
                except (ConnectionError, RuntimeError):
                    break

        writer_task = asyncio.ensure_future(drain())
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    message = json.loads(line)
                except json.JSONDecodeError as error:
                    out.put_nowait({"id": None, "ok": False, "error": str(error)})
                    continue
                future = server.submit(message)
                future.add_done_callback(
                    lambda f: loop.call_soon_threadsafe(out.put_nowait, f.result())
                )
        finally:
            out.put_nowait(None)
            await writer_task
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    return await asyncio.start_server(handle_connection, host, port, limit=_READ_LIMIT)
