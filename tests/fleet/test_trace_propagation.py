"""Trace-id propagation across the fleet wire protocol (no worker spawning)."""

from dataclasses import replace

from repro.fleet import (
    encode_frame,
    request_from_wire,
    request_to_wire,
    shard_key,
)
from repro.serve import ServeRequest


def _request(trace_id=None, request_id=0):
    from repro.data import generate_image

    return ServeRequest(
        request_id=request_id,
        app="gaussian",
        inputs=generate_image("natural", size=32, seed=1),
        error_budget=0.05,
        trace_id=trace_id,
    )


class TestWireRoundTrip:
    def test_trace_id_survives_the_wire(self):
        back = request_from_wire(request_to_wire(_request(trace_id="r42")))
        assert back.trace_id == "r42"

    def test_untraced_request_round_trips_as_none(self):
        back = request_from_wire(request_to_wire(_request()))
        assert back.trace_id is None

    def test_trace_id_survives_wire_id_rewrite(self):
        # The front-end renumbers requests per worker connection but must
        # preserve the trace id alongside.
        request = _request(trace_id="r7", request_id=7)
        wire_request = replace(request, request_id=1)
        back = request_from_wire(request_to_wire(wire_request))
        assert back.request_id == 1
        assert back.trace_id == "r7"

    def test_untraced_frames_are_byte_identical_to_pre_tracing_protocol(self):
        # trace_id is out-of-band: when unset, the wire dict must not even
        # contain the key, so untraced deployments produce the exact same
        # bytes as before tracing existed (recovery replay stays bit-stable).
        wire = request_to_wire(_request())
        assert "trace_id" not in wire
        traced = request_to_wire(_request(trace_id="r0"))
        untraced = dict(traced)
        del untraced["trace_id"]
        assert encode_frame({"type": "request", **untraced}) == encode_frame(
            {"type": "request", **request_to_wire(_request())}
        )

    def test_trace_label_falls_back_to_request_id(self):
        assert _request(request_id=5).trace_label == "r5"
        assert _request(trace_id="abc").trace_label == "abc"


class TestShardingUnaffected:
    def test_shard_key_ignores_trace_id(self):
        plain = shard_key(_request())
        traced = shard_key(_request(trace_id="r99"))
        assert plain == traced
