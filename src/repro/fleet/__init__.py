"""Multi-process serving fleet.

Scales the single-process :class:`~repro.serve.server.PerforationServer`
horizontally: an asyncio front-end (:class:`PerforationFleet`) routes
requests by the scheduler's batch-compat key to N worker processes, each
a full server warm-started from the controller ladders the front-end
calibrated — see ``docs/fleet.md`` for the design and its determinism
guarantees.
"""

from .frontend import FleetError, PerforationFleet, failed_response, rejected_response
from .protocol import (
    MAX_FRAME_BYTES,
    ProtocolError,
    encode_frame,
    error_frame,
    from_wire,
    read_frame,
    read_frame_async,
    request_from_wire,
    request_to_wire,
    response_from_wire,
    response_to_wire,
    to_wire,
    write_frame,
    write_frame_async,
)
from .sharding import ShardKey, ShardMap, shard_key
from .worker import WorkerSpec, build_server, worker_main

__all__ = [
    "FleetError",
    "MAX_FRAME_BYTES",
    "PerforationFleet",
    "ProtocolError",
    "ShardKey",
    "ShardMap",
    "WorkerSpec",
    "build_server",
    "encode_frame",
    "error_frame",
    "failed_response",
    "from_wire",
    "read_frame",
    "read_frame_async",
    "rejected_response",
    "request_from_wire",
    "request_to_wire",
    "response_from_wire",
    "response_to_wire",
    "shard_key",
    "to_wire",
    "worker_main",
    "write_frame",
    "write_frame_async",
]
