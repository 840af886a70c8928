"""Deterministic micro-batching scheduler.

Requests are grouped by *batch key* — application, configuration key and
global size — because only such requests can share one batched kernel
launch (:meth:`repro.api.engine.PerforationEngine.run_compiled_batch`
requires one kernel, one configuration and identically sized inputs).

A per-key queue flushes when it reaches ``max_batch`` requests, or when its
oldest request's flush deadline (arrival plus the smaller of the request's
latency budget and the scheduler's ``max_delay_ms``) has passed.  All
decisions are functions of the submitted trace alone: same requests, same
submission order, same virtual clock ⇒ same batch composition, which the
determinism suite pins down.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.config import ApproximationConfig
from ..core.errors import ConfigurationError
from .requests import ServeRequest

#: (app name, :attr:`ApproximationConfig.key
#: <repro.core.config.ApproximationConfig.key>`, global size).  The config
#: key, unlike the figure label, carries the work group and every scheme
#: parameter, so one batch key means one configuration.  The backend is not
#: part of it: a server launches on its engine's one backend.
BatchKey = tuple[str, str, tuple[int, ...]]


@dataclass
class MicroBatch:
    """A flushed group of compatible requests, ready for one launch."""

    key: BatchKey
    config: ApproximationConfig
    requests: list[ServeRequest]
    #: Virtual time at which the batch was flushed.
    formed_ms: float

    @property
    def app(self) -> str:
        return self.key[0]

    def __len__(self) -> int:
        return len(self.requests)


@dataclass
class _PendingQueue:
    config: ApproximationConfig
    requests: list[ServeRequest] = field(default_factory=list)

    def oldest_deadline(self, max_delay_ms: float) -> float:
        return min(
            r.arrival_ms
            + (
                max_delay_ms
                if r.latency_budget_ms is None
                else min(max_delay_ms, r.latency_budget_ms)
            )
            for r in self.requests
        )


class MicroBatchScheduler:
    """Groups compatible requests into micro-batches.

    Parameters
    ----------
    max_batch:
        Maximum number of requests per micro-batch (1 disables batching).
    max_delay_ms:
        Default upper bound on how long a request may wait for batch-mates;
        a request's own ``latency_budget_ms`` can only shorten it.
    """

    def __init__(self, max_batch: int = 8, max_delay_ms: float = 50.0) -> None:
        if max_batch < 1:
            raise ConfigurationError(f"max_batch must be >= 1, got {max_batch}")
        if max_delay_ms < 0:
            raise ConfigurationError(f"max_delay_ms must be >= 0, got {max_delay_ms}")
        self.max_batch = max_batch
        self.max_delay_ms = max_delay_ms
        # Insertion-ordered: iteration order (and with it batch flush order)
        # is a pure function of the submission sequence.
        self._queues: dict[BatchKey, _PendingQueue] = {}
        self.submitted = 0

    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Number of requests currently waiting in per-key queues."""
        return sum(len(q.requests) for q in self._queues.values())

    def submit(
        self,
        request: ServeRequest,
        config: ApproximationConfig,
        global_size: tuple[int, ...],
    ) -> BatchKey:
        """Enqueue ``request`` under its batch key and return the key."""
        key: BatchKey = (request.app, config.key, tuple(global_size))
        queue = self._queues.get(key)
        if queue is None:
            queue = self._queues[key] = _PendingQueue(config=config)
        queue.requests.append(request)
        self.submitted += 1
        return key

    # ------------------------------------------------------------------
    def _pop_batch(self, key: BatchKey, queue: _PendingQueue, now_ms: float) -> MicroBatch:
        """Pop up to ``max_batch`` requests, highest priority / oldest first."""
        queue.requests.sort(key=ServeRequest.sort_key)
        taken = queue.requests[: self.max_batch]
        queue.requests = queue.requests[self.max_batch :]
        return MicroBatch(key=key, config=queue.config, requests=taken, formed_ms=now_ms)

    def ready(self, now_ms: float) -> list[MicroBatch]:
        """Flush every queue that is full or past its oldest deadline.

        A deadline-triggered batch is stamped with the deadline itself, not
        ``now_ms``: the caller may only poll at arrival events, and the
        batch *should* have been flushed when its oldest deadline expired —
        otherwise reported queue delays could exceed the configured
        latency bounds arbitrarily on sparse traces.
        """
        batches: list[MicroBatch] = []
        for key in list(self._queues):
            queue = self._queues[key]
            while len(queue.requests) >= self.max_batch:
                batches.append(self._pop_batch(key, queue, now_ms))
            if queue.requests:
                deadline = queue.oldest_deadline(self.max_delay_ms)
                if deadline <= now_ms:
                    batches.append(self._pop_batch(key, queue, deadline))
            if not queue.requests:
                del self._queues[key]
        return batches

    def flush(self, now_ms: float) -> list[MicroBatch]:
        """Flush everything that is still queued (end of trace / shutdown).

        Batches whose oldest deadline already expired are stamped with that
        deadline (as in :meth:`ready`); the rest with ``now_ms``.
        """
        batches: list[MicroBatch] = []
        for key in list(self._queues):
            queue = self._queues[key]
            while queue.requests:
                formed = min(now_ms, queue.oldest_deadline(self.max_delay_ms))
                batches.append(self._pop_batch(key, queue, formed))
            del self._queues[key]
        return batches

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<MicroBatchScheduler max_batch={self.max_batch} "
            f"max_delay_ms={self.max_delay_ms} pending={self.pending}>"
        )
