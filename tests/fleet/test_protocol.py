"""Wire protocol: tagged value codec, binary frame bodies and frame IO."""

import asyncio
import io
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.data import hotspot_single
from repro.data.hotspot import HotspotInput
from repro.fleet import (
    MAX_FRAME_BYTES,
    ProtocolError,
    encode_frame,
    from_wire,
    read_frame,
    read_frame_async,
    request_from_wire,
    request_to_wire,
    response_from_wire,
    response_to_wire,
    to_wire,
    write_frame,
)
from repro.fleet.protocol import (
    FRAME_HEADER,
    HEADER_LENGTH,
    ArrayTable,
    decode_body,
    frame_fits,
)
from repro.serve import ServeRequest, ServeResponse


def body_of(frame):
    return frame[FRAME_HEADER.size :]


def round_trip(value):
    """to_wire, one frame, from_wire: the path every fleet message takes."""
    return from_wire(decode_body(body_of(encode_frame({"value": to_wire(value)})))["value"])


class TestValueCodec:
    @pytest.mark.parametrize("dtype", ["float64", "float32", "int32", "uint8", "bool"])
    def test_ndarray_round_trip_is_exact(self, dtype):
        rng = np.random.default_rng(5)
        array = (rng.uniform(0, 100, size=(5, 7)) - 50).astype(dtype)
        back = round_trip(array)
        assert back.dtype == array.dtype
        assert back.shape == array.shape
        assert np.array_equal(back, array)

    def test_float_bit_exactness(self):
        values = [0.1 + 0.2, 1.0 / 3.0, 2.0**-1074, 1e308, -0.0]
        array = np.array(values)
        assert round_trip(array).tobytes() == array.tobytes()
        assert round_trip(values) == values  # plain floats via JSON repr

    def test_decoded_arrays_are_writable(self):
        back = round_trip(np.zeros((2, 2)))
        back[0, 0] = 1.0  # np.frombuffer alone would be read-only
        assert back.flags.owndata

    def test_non_contiguous_array(self):
        array = np.arange(16.0).reshape(4, 4)[::2, ::2]
        assert np.array_equal(round_trip(array), array)

    def test_hotspot_input_round_trip(self):
        original = hotspot_single(size=32, seed=7)
        back = round_trip(original)
        assert isinstance(back, HotspotInput)
        assert back.size == original.size and back.name == original.name
        assert np.array_equal(back.temperature, original.temperature)
        assert np.array_equal(back.power, original.power)

    def test_tuples_survive_nested_containers(self):
        value = {"a": (1, 2.5, "x"), "b": [(0,), {"c": (None, True)}]}
        back = round_trip(value)
        assert back == value
        assert isinstance(back["a"], tuple)
        assert isinstance(back["b"][0], tuple)
        assert isinstance(back["b"][1]["c"], tuple)

    def test_numpy_scalars_become_python_numbers(self):
        assert to_wire(np.int64(3)) == 3
        assert to_wire(np.float64(0.5)) == 0.5

    def test_zero_dimensional_array_keeps_its_shape(self):
        # np.ascontiguousarray promotes 0-d arrays to shape (1,).
        back = round_trip(np.array(3.0))
        assert back.shape == () and back.dtype == np.float64 and back == 3.0
        assert from_wire(to_wire(np.array(3.0))).shape == ()

    def test_numpy_bool_becomes_python_bool(self):
        assert to_wire(np.bool_(True)) is True
        assert round_trip({"flag": np.bool_(False)}) == {"flag": False}

    @pytest.mark.parametrize(
        "array",
        [np.array([object(), 1], dtype=object), np.zeros(2, dtype=[("a", "<f8"), ("b", "<i4")])],
        ids=["object", "structured"],
    )
    def test_object_and_structured_arrays_rejected_at_encode_time(self, array):
        with pytest.raises(ProtocolError):
            to_wire(array)
        with pytest.raises(ProtocolError):
            encode_frame({"value": array})  # arrays placed without to_wire too

    def test_reserved_and_invalid_keys_rejected(self):
        with pytest.raises(ProtocolError):
            to_wire({"__kind__": "nope"})
        with pytest.raises(ProtocolError):
            to_wire({1: "non-string key"})

    def test_unencodable_value_rejected(self):
        with pytest.raises(ProtocolError):
            to_wire(object())

    def test_unknown_tag_rejected(self):
        with pytest.raises(ProtocolError):
            from_wire({"__kind__": "mystery"})


class TestRequestResponseCodec:
    def test_request_round_trip(self):
        request = ServeRequest(
            request_id=7,
            app="gaussian",
            inputs=np.ones((4, 4)),
            error_budget=0.025,
            arrival_ms=12.5,
            latency_budget_ms=40.0,
            priority=1,
        )
        back = request_from_wire(request_to_wire(request))
        assert back.request_id == 7 and back.app == "gaussian"
        assert back.error_budget == 0.025 and back.arrival_ms == 12.5
        assert back.latency_budget_ms == 40.0 and back.priority == 1
        assert np.array_equal(back.inputs, request.inputs)

    def test_response_round_trip_including_rejected(self):
        served = ServeResponse(
            request_id=1,
            app="sobel3",
            config_label="Rows1:NN",
            output=np.full((2, 2), 0.5),
            error=0.0125,
            fallback=True,
            cache_hit=True,
            batch_size=3,
            queue_delay_ms=1.5,
            service_time_ms=2.25,
            completed_ms=10.0,
            metadata={"k": (1, 2)},
        )
        back = response_from_wire(response_to_wire(served))
        assert np.array_equal(back.output, served.output)
        assert back.error == served.error and back.rejected is False
        assert back.fallback and back.cache_hit and back.batch_size == 3
        assert back.metadata == {"k": (1, 2)}

        rejected = ServeResponse(
            request_id=2,
            app="sobel3",
            config_label="",
            output=None,
            error=None,
            rejected=True,
        )
        back = response_from_wire(response_to_wire(rejected))
        assert back.rejected is True and back.output is None and back.error is None


class TestFrames:
    def test_sync_frame_round_trip(self):
        stream = io.BytesIO()
        write_frame(stream, {"type": "hello", "n": 1})
        write_frame(stream, {"type": "bye", "values": [0.1, 0.2]})
        stream.seek(0)
        assert read_frame(stream) == {"type": "hello", "n": 1}
        assert read_frame(stream) == {"type": "bye", "values": [0.1, 0.2]}
        assert read_frame(stream) is None  # clean EOF

    def test_truncated_stream_raises(self):
        frame = encode_frame({"type": "x"})
        stream = io.BytesIO(frame[:-2])
        with pytest.raises(ProtocolError):
            read_frame(stream)
        header_only = io.BytesIO(frame[:3])
        with pytest.raises(ProtocolError):
            read_frame(header_only)

    def test_oversized_frame_rejected_both_ways(self, monkeypatch):
        with pytest.raises(ProtocolError):
            encode_frame({"blob": "x" * (MAX_FRAME_BYTES + 1)})
        bogus = io.BytesIO(struct.pack(">I", MAX_FRAME_BYTES + 1) + b"x")
        with pytest.raises(ProtocolError):
            read_frame(bogus)
        # The bound covers the array buffers, not just the JSON header.
        monkeypatch.setattr("repro.fleet.protocol.MAX_FRAME_BYTES", 1024)
        encode_frame({"value": np.zeros(100)})
        with pytest.raises(ProtocolError):
            encode_frame({"value": np.zeros(128)})

    def test_non_object_body_rejected(self):
        header = b"[1, 2]"
        body = HEADER_LENGTH.pack(len(header)) + header
        stream = io.BytesIO(FRAME_HEADER.pack(len(body)) + body)
        with pytest.raises(ProtocolError):
            read_frame(stream)

    def test_async_frame_round_trip(self):
        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data(encode_frame({"type": "hello"}))
            reader.feed_data(encode_frame({"n": 2}))
            reader.feed_eof()
            first = await read_frame_async(reader)
            second = await read_frame_async(reader)
            third = await read_frame_async(reader)
            return first, second, third

        first, second, third = asyncio.run(scenario())
        assert first == {"type": "hello"}
        assert second == {"n": 2}
        assert third is None

    def test_async_truncation_raises(self):
        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data(encode_frame({"type": "x"})[:-1])
            reader.feed_eof()
            await read_frame_async(reader)

        with pytest.raises(ProtocolError):
            asyncio.run(scenario())


def _mixed_requests():
    """Requests whose inputs cover the wire's array shapes and tags."""
    rng = np.random.default_rng(11)
    inputs = [
        rng.random((16, 16)),
        rng.random((8, 12)).astype(np.float32),
        hotspot_single(size=8, seed=3),
        (np.arange(6, dtype=">i4").reshape(2, 3), 0.5),
        np.asfortranarray(rng.random((5, 7))),
    ]
    return [
        ServeRequest(
            request_id=10 + index,
            app="gaussian",
            inputs=value,
            error_budget=0.05,
            arrival_ms=0.1 * index,
            trace_id=None if index % 2 else f"r{index}",
        )
        for index, value in enumerate(inputs)
    ]


def _same_inputs(back, original):
    if isinstance(original, HotspotInput):
        assert isinstance(back, HotspotInput) and back.name == original.name
        _same_inputs(back.temperature, original.temperature)
        _same_inputs(back.power, original.power)
    elif isinstance(original, tuple):
        assert isinstance(back, tuple) and len(back) == len(original)
        for item, expected in zip(back, original):
            _same_inputs(item, expected)
    elif isinstance(original, np.ndarray):
        assert back.dtype == original.dtype and back.shape == original.shape
        assert back.tobytes() == original.tobytes()
    else:
        assert back == original


class TestMultiRequestFrames:
    def test_serve_frame_round_trips_bit_exactly_through_both_readers(self):
        requests = _mixed_requests()
        frame = encode_frame({"type": "serve", "requests": [request_to_wire(r) for r in requests]})
        for decoded in _read_both_ways(frame):
            back = [request_from_wire(wire) for wire in decoded["requests"]]
            assert len(back) == len(requests)
            for request, original in zip(back, requests):
                assert request.request_id == original.request_id
                assert request.arrival_ms == original.arrival_ms
                assert request.trace_id == original.trace_id
                _same_inputs(request.inputs, original.inputs)

    def test_frame_bound_covers_every_request_of_a_frame(self, monkeypatch):
        monkeypatch.setattr("repro.fleet.protocol.MAX_FRAME_BYTES", 2048)
        one = {"inputs": np.zeros(100)}
        encode_frame({"type": "serve", "requests": [one]})
        with pytest.raises(ProtocolError):
            encode_frame({"type": "serve", "requests": [one, one, one]})

    def test_buffer_checks_hold_for_a_later_request(self):
        header = {"type": "serve", "requests": [{"inputs": _tag()}, {"inputs": _tag(buf=(24, 16))}]}
        with pytest.raises(ProtocolError, match="does not start"):
            decode_body(_raw_body(header, bytes(40)))
        header["requests"][1]["inputs"] = _tag(dtype="O", buf=(16, 16))
        with pytest.raises(ProtocolError, match="unusable dtype"):
            decode_body(_raw_body(header, bytes(32)))


ONE_BYTE = ["bool", "int8", "uint8"]
MULTI_BYTE = ["i2", "i4", "i8", "f2", "f4", "f8", "c16"]
#: Both byte orders of every multi-byte dtype (one-byte dtypes have none).
WIRE_DTYPES = ONE_BYTE + [order + code for code in MULTI_BYTE for order in "<>"]


@st.composite
def wire_arrays(draw):
    """Arrays of every wire dtype: 0-d, zero-length axes, strided and Fortran views."""
    dtype = np.dtype(draw(st.sampled_from(WIRE_DTYPES)))
    shape = draw(hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5))
    array = draw(hnp.arrays(dtype, shape))
    view = draw(st.sampled_from(["as-is", "strided", "fortran", "transposed"]))
    if view == "strided" and array.ndim:
        return array[::2]
    if view == "fortran":
        return np.asfortranarray(array)
    if view == "transposed":
        return array.T
    return array


def _read_both_ways(frame):
    async def read_async():
        reader = asyncio.StreamReader()
        reader.feed_data(frame)
        reader.feed_eof()
        return await read_frame_async(reader)

    return read_frame(io.BytesIO(frame)), asyncio.run(read_async())


def _raw_body(header, payload=b"", header_length=None):
    """A frame body with a hand-written JSON header (for malformed cases)."""
    text = json.dumps(header).encode("utf-8")
    length = len(text) if header_length is None else header_length
    return HEADER_LENGTH.pack(length) + text + payload


def _tag(dtype="float64", shape=(2,), buf=(0, 16)):
    return {"__kind__": "ndarray", "dtype": dtype, "shape": list(shape), "buf": list(buf)}


class TestBinaryBody:
    @given(arrays=st.lists(wire_arrays(), min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_arrays_round_trip_through_both_readers(self, arrays):
        hotspot = hotspot_single(size=8, seed=3)
        message = {"type": "serve", "arrays": to_wire(arrays), "hotspot": to_wire(hotspot)}
        frame = encode_frame(message)
        body = np.frombuffer(body_of(frame), dtype=np.uint8)
        for decoded in (decode_body(body_of(frame)), *_read_both_ways(frame)):
            back = from_wire(decoded["arrays"])
            for original, array in zip(arrays, back, strict=True):
                assert array.dtype == original.dtype
                assert array.shape == original.shape
                assert array.tobytes() == original.tobytes()
                assert array.flags.writeable and array.flags.owndata
                assert not np.shares_memory(array, body)
            spot = from_wire(decoded["hotspot"])
            assert spot.temperature.tobytes() == hotspot.temperature.tobytes()
            assert spot.power.tobytes() == hotspot.power.tobytes()

    def test_header_length_running_past_the_body_rejected(self):
        body = _raw_body({"type": "x"})
        with pytest.raises(ProtocolError, match="runs past"):
            decode_body(HEADER_LENGTH.pack(len(body)) + body[HEADER_LENGTH.size :])
        with pytest.raises(ProtocolError):
            decode_body(b"\x00\x00")  # too short for the header length itself

    def test_gap_between_buffers_rejected(self):
        body = _raw_body({"a": _tag(buf=(8, 16))}, bytes(24))
        with pytest.raises(ProtocolError, match="does not start"):
            decode_body(body)

    def test_overlapping_buffers_rejected(self):
        header = {"a": _tag(buf=(0, 16)), "b": _tag(buf=(8, 16))}
        with pytest.raises(ProtocolError, match="does not start"):
            decode_body(_raw_body(header, bytes(24)))

    def test_buffers_out_of_order_rejected(self):
        header = {"a": _tag(buf=(16, 16)), "b": _tag(buf=(0, 16))}
        with pytest.raises(ProtocolError, match="does not start"):
            decode_body(_raw_body(header, bytes(32)))

    def test_trailing_bytes_rejected(self):
        with pytest.raises(ProtocolError, match="cover"):
            decode_body(_raw_body({"a": _tag()}, bytes(17)))
        with pytest.raises(ProtocolError, match="cover"):
            decode_body(_raw_body({"type": "x"}, b"\x00"))

    def test_buffer_running_past_the_body_rejected(self):
        with pytest.raises(ProtocolError, match="runs past"):
            decode_body(_raw_body({"a": _tag()}, bytes(15)))

    def test_size_disagreeing_with_shape_rejected(self):
        with pytest.raises(ProtocolError, match="does not hold"):
            decode_body(_raw_body({"a": _tag(shape=(3,), buf=(0, 16))}, bytes(16)))
        with pytest.raises(ProtocolError, match="malformed shape"):
            decode_body(_raw_body({"a": _tag(shape=(-2, -1), buf=(0, 16))}, bytes(16)))

    @pytest.mark.parametrize("dtype", ["float6t", "(2,3", "", 8, None])
    def test_unparseable_dtype_rejected(self, dtype):
        with pytest.raises(ProtocolError, match="unusable dtype"):
            decode_body(_raw_body({"a": _tag(dtype=dtype)}, bytes(16)))

    @pytest.mark.parametrize("dtype", ["O", "f8,f8", "V16", "(2,)f8"])
    def test_object_and_structured_dtypes_rejected(self, dtype):
        with pytest.raises(ProtocolError, match="unusable dtype"):
            decode_body(_raw_body({"a": _tag(dtype=dtype, shape=(1,))}, bytes(16)))

    @given(data=st.data())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_corrupted_bodies_decode_or_raise_protocol_error(self, data):
        body = bytearray(FUZZ_BODY)
        if data.draw(st.booleans()):
            del body[data.draw(st.integers(0, len(body) - 1)) :]
        # Most flips land in the JSON header, where the structure lives.
        header_end = HEADER_LENGTH.size + FUZZ_HEADER_BYTES
        for _ in range(data.draw(st.integers(1, 3))):
            if body:
                limit = min(len(body), header_end) if data.draw(st.booleans()) else len(body)
                body[data.draw(st.integers(0, limit - 1))] ^= data.draw(st.integers(1, 255))
        try:
            decode_body(bytes(body))
        except ProtocolError:
            pass

    def test_serve_frame_of_a_64x64_image_carries_raw_bytes(self):
        request = ServeRequest(
            request_id=123456,
            app="gaussian",
            inputs=np.random.default_rng(0).random((64, 64)),
            error_budget=0.025,
            arrival_ms=12345.678,
            latency_budget_ms=40.0,
            trace_id="r123456",
        )
        frame = encode_frame({"type": "serve", "request": request_to_wire(request)})
        assert len(frame) <= 64 * 64 * 8 + 1024  # base64-in-JSON took 43,907 bytes


def _fuzz_body():
    request = ServeRequest(
        request_id=3,
        app="hotspot",
        inputs=(
            HotspotInput(size=2, temperature=np.full((2, 2), 323.15), power=np.eye(2), name="t"),
            np.arange(3, dtype=">i2"),
        ),
        error_budget=0.05,
        arrival_ms=1.5,
    )
    return body_of(encode_frame({"type": "serve", "request": request_to_wire(request)}))


FUZZ_BODY = _fuzz_body()
(FUZZ_HEADER_BYTES,) = HEADER_LENGTH.unpack_from(FUZZ_BODY)


# ---------------------------------------------------------------------------
# Array tables
# ---------------------------------------------------------------------------
def _header(frame):
    """The JSON header of an encoded frame, tags unresolved."""
    body = body_of(frame)
    (length,) = HEADER_LENGTH.unpack_from(body)
    return json.loads(body[HEADER_LENGTH.size : HEADER_LENGTH.size + length])


def _payload_bytes(frame):
    """Bytes of array buffers an encoded frame carries."""
    (length,) = HEADER_LENGTH.unpack_from(body_of(frame))
    return len(body_of(frame)) - HEADER_LENGTH.size - length


def _send(message, sent, received):
    """Encode with the sender's table, decode with the receiver's."""
    frame = encode_frame(message, sent)
    return frame, decode_body(body_of(frame), received)


class TestArrayTables:
    def test_a_repeated_array_travels_once_then_as_a_ref(self):
        sent, received = ArrayTable(), ArrayTable()
        image = np.random.default_rng(1).random((8, 8))
        other = np.arange(4, dtype=np.int32)
        first, back = _send({"type": "serve", "a": image, "b": [other, image]}, sent, received)
        assert _header(first)["a"] == {
            "__kind__": "ndarray",
            "buf": [0, image.nbytes],
            "dtype": "float64",
            "shape": [8, 8],
            "slot": 0,
        }
        # A second use inside the frame already refers to the new slot.
        assert _header(first)["b"][1] == {"__kind__": "ref", "slot": 0}
        assert _payload_bytes(first) == image.nbytes + other.nbytes
        second, again = _send({"type": "serve", "x": [other, image]}, sent, received)
        assert _header(second)["x"] == [
            {"__kind__": "ref", "slot": 1},
            {"__kind__": "ref", "slot": 0},
        ]
        assert _payload_bytes(second) == 0
        for decoded in (back["a"], back["b"][1], again["x"][1]):
            assert decoded.tobytes() == image.tobytes() and decoded.dtype == image.dtype
        assert again["x"][0].tobytes() == other.tobytes()
        assert (sent.by_value, sent.by_ref) == (received.by_value, received.by_ref) == (2, 3)

    def test_content_equal_but_distinct_arrays_travel_by_value(self):
        sent, received = ArrayTable(), ArrayTable()
        frame, _ = _send({"type": "serve", "a": np.zeros(4), "b": np.zeros(4)}, sent, received)
        assert _payload_bytes(frame) == 2 * np.zeros(4).nbytes
        assert sent.by_ref == received.by_ref == 0

    def test_decoded_arrays_are_writable_and_own_their_memory(self):
        sent, received = ArrayTable(), ArrayTable()
        image = np.arange(6.0).reshape(2, 3)
        _, first = _send({"type": "serve", "x": image}, sent, received)
        _, second = _send({"type": "serve", "x": image, "y": image}, sent, received)
        decoded = [first["x"], second["x"], second["y"]]
        for array in decoded:
            assert array.flags.writeable and array.flags.owndata
        assert len({id(array) for array in decoded}) == 3
        # The first decoded array is the one the receiver keeps; every ref
        # decodes to a copy of it, so writing one leaves the kept array.
        assert first["x"] is received.arrays[0]
        second["x"][0, 1] = -1.0
        _, third = _send({"type": "serve", "x": image}, sent, received)
        assert third["x"].tobytes() == image.tobytes()

    @pytest.mark.parametrize("slot", [0, 1, -1, "0", True])
    def test_a_ref_to_a_slot_the_receiver_does_not_hold_raises(self, slot):
        received = ArrayTable()
        received.arrays.append(np.zeros(2))  # slot 0 is held
        body = _raw_body({"type": "serve", "x": {"__kind__": "ref", "slot": slot}})
        if slot == 0:
            assert decode_body(body, received)["x"].tobytes() == np.zeros(2).tobytes()
            with pytest.raises(ProtocolError, match="does not hold"):
                decode_body(body)  # without a table, no slot is held
            return
        with pytest.raises(ProtocolError, match="does not hold"):
            decode_body(body, received)

    @pytest.mark.parametrize("slot", [1, -1, "0", None])
    def test_a_new_slot_must_be_the_next_free_one(self, slot):
        tag = dict(_tag(), slot=slot)
        body = _raw_body({"type": "serve", "x": tag}, bytes(16))
        if slot is None:  # a plain by-value tag: nothing kept
            table = ArrayTable()
            decode_body(body, table)
            assert table.arrays == [] and table.by_value == 1
            return
        with pytest.raises(ProtocolError, match="next free slot"):
            decode_body(body, ArrayTable())

    def test_a_new_slot_past_the_bound_raises(self, monkeypatch):
        monkeypatch.setattr("repro.fleet.protocol.TABLE_BYTES", 8)
        body = _raw_body({"type": "serve", "x": dict(_tag(), slot=0)}, bytes(16))
        with pytest.raises(ProtocolError, match="bound"):
            decode_body(body, ArrayTable())

    def test_a_frame_encode_frame_rejects_commits_no_slot(self, monkeypatch):
        monkeypatch.setattr("repro.fleet.protocol.MAX_FRAME_BYTES", 2048)
        sent, received = ArrayTable(), ArrayTable()
        small, big = np.zeros(16), np.zeros(512)
        message = {"type": "serve", "a": small, "b": big}
        assert not frame_fits(message, sent)
        with pytest.raises(ProtocolError, match="exceeds"):
            encode_frame(message, sent)
        assert sent.arrays == [] and sent.ids == {} and sent.nbytes == 0
        assert sent.by_value == sent.by_ref == 0
        # The next frame that fits starts at slot 0, which the receiver
        # (which never got the rejected frame) expects.
        assert frame_fits({"type": "serve", "a": small}, sent)
        frame, back = _send({"type": "serve", "a": small}, sent, received)
        assert _header(frame)["a"]["slot"] == 0 and len(received.arrays) == 1

    def test_frame_fits_reads_the_table_and_changes_nothing(self, monkeypatch):
        sent = ArrayTable()
        image = np.zeros(256)
        encode_frame({"type": "serve", "x": image}, sent)
        monkeypatch.setattr("repro.fleet.protocol.MAX_FRAME_BYTES", 1024)
        # By value the frame is over the bound; as a ref it fits.
        assert not frame_fits({"type": "serve", "x": image})
        assert frame_fits({"type": "serve", "x": image}, sent)
        assert not frame_fits({"type": "serve", "x": image.copy()}, sent)
        assert len(sent.arrays) == 1 and sent.by_value == 1 and sent.by_ref == 0

    def test_past_the_bound_arrays_travel_by_value_without_a_slot(self, monkeypatch):
        monkeypatch.setattr("repro.fleet.protocol.TABLE_BYTES", 3 * 64)
        sent, received = ArrayTable(), ArrayTable()
        arrays = [np.full(8, float(n)) for n in range(4)]  # 64 bytes each
        frame, back = _send({"type": "serve", "x": arrays}, sent, received)
        tags = _header(frame)["x"]
        assert [tag.get("slot") for tag in tags] == [0, 1, 2, None]
        assert sent.nbytes == received.nbytes == 3 * 64
        again, back = _send({"type": "serve", "x": arrays[::-1]}, sent, received)
        kinds = [(tag["__kind__"], tag.get("slot")) for tag in _header(again)["x"]]
        assert kinds == [("ndarray", None), ("ref", 2), ("ref", 1), ("ref", 0)]
        assert [array[0] for array in back["x"]] == [3.0, 2.0, 1.0, 0.0]
        assert len(received.arrays) == 3

    @pytest.mark.parametrize("end", ["drain", "drained"])
    def test_the_end_of_a_trace_empties_the_table_at_both_ends(self, end):
        sent, received = ArrayTable(), ArrayTable()
        image = np.ones(4)
        _send({"type": "serve", "x": image}, sent, received)
        last, back = _send({"type": end, "responses": [image]}, sent, received)
        assert _header(last)["responses"] == [{"__kind__": "ref", "slot": 0}]
        assert back["responses"][0].tobytes() == image.tobytes()
        for table in (sent, received):
            assert table.arrays == [] and table.ids == {} and table.nbytes == 0
            assert (table.by_value, table.by_ref) == (1, 1)  # counts survive
        # The next trace ships the array by value again, under slot 0.
        frame, _ = _send({"type": "serve", "x": image}, sent, received)
        assert _header(frame)["x"]["slot"] == 0 and _payload_bytes(frame) == image.nbytes

    def test_tables_ride_both_frame_readers_and_writers(self):
        image = np.arange(9.0).reshape(3, 3)
        sent = ArrayTable()
        stream = io.BytesIO()
        for _ in range(2):
            write_frame(stream, {"type": "serve", "x": image}, sent)
        frames = stream.getvalue()

        async def read_async(table):
            reader = asyncio.StreamReader()
            reader.feed_data(frames)
            reader.feed_eof()
            return [await read_frame_async(reader, table) for _ in range(2)]

        sync_table = ArrayTable()
        stream = io.BytesIO(frames)
        sync = [read_frame(stream, sync_table) for _ in range(2)]
        for decoded in (sync, asyncio.run(read_async(ArrayTable()))):
            assert [frame["x"].tobytes() for frame in decoded] == [image.tobytes()] * 2
        assert (sync_table.by_value, sync_table.by_ref) == (1, 1)
