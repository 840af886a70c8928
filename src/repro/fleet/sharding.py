"""Deterministic request routing: compat-key sharding over N workers.

Micro-batching only pays off when compatible requests land on the *same*
worker: the scheduler batches by ``(app, config, global size)``, so
splitting one of those streams across workers would halve every batch.
The fleet therefore routes by the request-determined part of that key —
application and global size — which we call the :data:`ShardKey`.  The
configuration component is chosen *inside* the worker by its online
controller; because every request of an (app, size) stream lands on one
worker, that controller sees exactly the observation subsequence the
single-process server would see, reproduces its decisions
bit-identically, and the full compat key stays colocated.

Placement is planned per trace (:meth:`ShardMap.for_trace`, used by
:meth:`PerforationFleet.serve_trace <repro.fleet.frontend.
PerforationFleet.serve_trace>`): longest-processing-time greedy placement
over per-key request counts puts keys heaviest-first onto the
least-loaded worker, which keeps the fleet balanced even when a handful
of applications dominate the traffic.  The plan is a pure function of the
trace's key counts, and it covers every key of the trace it routes.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from ..apps import get_application
from ..core.errors import ConfigurationError
from ..serve.requests import ServeRequest

#: (application name, global size) — the request-determined part of the
#: scheduler's batch-compat key.
ShardKey = tuple[str, tuple[int, ...]]


def shard_key(request: ServeRequest) -> ShardKey:
    """The routing key of one request (pure function of the request)."""
    app = get_application(request.app)
    return (request.app, tuple(app.global_size(request.inputs)))


class ShardMap:
    """Shard-key → worker-index mapping: a planned placement of known keys.

    Every occurrence of a key routes to the same worker.
    """

    def __init__(
        self, workers: int, assignment: Mapping[ShardKey, int] | None = None
    ) -> None:
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.assignment: dict[ShardKey, int] = dict(assignment or {})
        for key, index in self.assignment.items():
            if not 0 <= index < workers:
                raise ConfigurationError(
                    f"planned assignment maps {key} to worker {index}, "
                    f"but the fleet has {workers} workers"
                )

    def assign(self, key: ShardKey) -> int:
        """The worker serving ``key`` (a ``KeyError`` for an unplanned key)."""
        return self.assignment[key]

    # ------------------------------------------------------------------
    @classmethod
    def planned(cls, counts: Mapping[ShardKey, int], workers: int) -> "ShardMap":
        """Balanced placement of known keys (LPT greedy over request counts).

        Keys are sorted heaviest-first (ties broken by the key itself, so
        the plan is a pure function of ``counts``) and placed one by one on
        the currently least-loaded worker.
        """
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        loads = [0] * workers
        assignment: dict[ShardKey, int] = {}
        ordered = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
        for key, count in ordered:
            target = min(range(workers), key=lambda index: (loads[index], index))
            assignment[key] = target
            loads[target] += count
        return cls(workers, assignment)

    @classmethod
    def for_trace(cls, trace: Iterable[ServeRequest], workers: int) -> "ShardMap":
        """Balanced plan for a known trace (counts each key's requests)."""
        counts: dict[ShardKey, int] = {}
        for request in trace:
            key = shard_key(request)
            counts[key] = counts.get(key, 0) + 1
        return cls.planned(counts, workers)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<ShardMap workers={self.workers} planned_keys={len(self.assignment)}>"
