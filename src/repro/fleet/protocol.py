"""Length-prefixed binary wire protocol of the serving fleet.

Every message is one *frame*: a 4-byte big-endian body length followed by
the body.  A body is a 4-byte big-endian header length, a compact,
key-sorted UTF-8 JSON header, and then the raw bytes of every NumPy array
in the message, back to back in the order their tags appear in the
header (the out-of-band buffers of pickle protocol 5, PEP 574).  Frames
are self-delimiting, so the same codec serves both ends of a worker's
socket pair: the synchronous worker loop reads from a buffered socket
file, and the asyncio front-end reads from a
:class:`asyncio.StreamReader`.

Values that JSON cannot carry natively are *tagged*:

* :class:`numpy.ndarray` — ``{"__kind__": "ndarray", "dtype", "shape",
  "buf": [offset, nbytes]}`` in the header, where ``offset`` counts from
  the first buffer byte, plus ``"slot": k`` when the receiver is to keep
  it (below).  The array's bytes ride raw, so the round trip is exact,
  which is what makes fleet outputs **bit-identical** to single-process
  serving.  :func:`to_wire` leaves arrays in place and
  :func:`encode_frame` ships them; :func:`decode_body` copies each one out
  of the body, so decoded arrays are writable and own their memory;
* an array the receiver already keeps — ``{"__kind__": "ref", "slot": k}``,
  with no bytes; it decodes to a copy of the kept array;
* :class:`~repro.data.hotspot.HotspotInput` — its two grids plus size/name;
* tuples — distinguished from lists so request inputs survive untouched.

**Array tables.**  Each direction of a worker connection has one
:class:`ArrayTable` at each end, passed to :func:`encode_frame` and
:func:`decode_body` (and the frame readers and writers).  The first time
an array crosses in a trace it travels by value with the next slot number,
and the receiver keeps the array it decoded under that slot; each later
occurrence travels as a ``ref``.  The sender keys arrays by identity
(``id``), not content, and holds every array it maps, so no id is reused
while mapped.  That is sound because nothing writes a mapped array within
a trace: a caller runs no code while the fleet serves its trace, a worker
never writes an output it has sent, and neither end writes an array it
decoded.  Content-equal but distinct arrays travel by value.
New slots are committed only once their frame is built, so a frame
:func:`encode_frame` rejects leaves the table as it was.  Each table gives
slots to at most :data:`TABLE_BYTES` of arrays per trace; past that,
arrays travel by value without a slot.  A table lives for one trace: the
frame that ends a trace in its direction (:data:`TRACE_END`: ``drain``
from the front-end, ``drained`` from the worker) empties the table it
travels with, at both ends.  Without a table, arrays always travel by
value and a ``ref`` is an error.

Floats ride as JSON numbers: Python's ``json`` emits ``repr`` shortest
round-trip literals, so measured errors and virtual timestamps are exact
too.  The protocol is for co-operating local processes spawned by the
front-end — it is not hardened against adversarial peers, but decoding
is strict: a frame over :data:`MAX_FRAME_BYTES`, a header that runs past
the body or is not a JSON object, an array tag with an unusable dtype
(object or structured) or a size that disagrees with its shape, buffers
that do not tile the bytes after the header exactly, a ``ref`` to a slot
the receiver does not hold, and a new slot out of order or past the
table's bound raise :class:`ProtocolError`.

Frame vocabulary (the ``type`` key): ``hello`` (worker warm-start report,
including the worker's respawn ``generation``), ``serve``/``completed``
(a ``serve`` frame carries a list of ``requests``, every one the
front-end had queued when it woke up, and its ``completed`` answer the
list of ``responses`` that serving them made due), ``drain``/``drained``
(drains carry a front-end ``seq`` tag the worker echoes, so replayed
historical drains are distinguishable from the current trace's),
``metrics``, ``shutdown``/``bye``, and ``error``.  Error frames come in
two scopes — see :func:`error_frame`: with a ``request_id`` they fail
exactly one request and the trace continues; without one they are fatal
for the worker and trigger the front-end's failure recovery (respawn and
replay).
"""

from __future__ import annotations

import asyncio
import functools
import json
import math
import struct
from typing import Any, BinaryIO

import numpy as np

from ..core.errors import ConfigurationError
from ..data.hotspot import HotspotInput
from ..serve.requests import ServeRequest, ServeResponse

#: 4-byte big-endian unsigned frame length.
FRAME_HEADER = struct.Struct(">I")

#: 4-byte big-endian unsigned length of the JSON header that opens a body.
HEADER_LENGTH = struct.Struct(">I")

#: Upper bound on one frame body (64 MiB), enforced when encoding and when
#: reading: a torn or foreign stream fails fast instead of allocating an
#: absurd buffer.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Array bytes one table gives slots to per trace (8 MiB).  Past it, arrays
#: travel by value without a slot until the trace's end empties the table.
TABLE_BYTES = 8 * 1024 * 1024

#: Frame types that end a trace in their direction: sending or receiving
#: one empties the table it travels with.
TRACE_END = frozenset({"drain", "drained"})


class ProtocolError(ConfigurationError):
    """A malformed, truncated or oversized frame."""


class ArrayTable:
    """One direction's array table at one end of a worker connection.

    ``arrays`` holds the kept arrays, slot ``k`` at index ``k``.  A sender
    also maps ``id(array)`` to its slot in ``ids``; holding the array in
    ``arrays`` keeps that id from being reused while it is mapped.
    ``nbytes`` counts the kept arrays' bytes against :data:`TABLE_BYTES`.
    ``by_value`` and ``by_ref`` count the arrays that travelled with this
    table each way; :meth:`clear` keeps those counts.
    """

    def __init__(self) -> None:
        self.arrays: list[np.ndarray] = []
        self.ids: dict[int, int] = {}
        self.nbytes = 0
        self.by_value = 0
        self.by_ref = 0

    def clear(self) -> None:
        """Forget every slot: the end of a trace, or a new connection."""
        self.arrays.clear()
        self.ids.clear()
        self.nbytes = 0


# ---------------------------------------------------------------------------
# Value codec
# ---------------------------------------------------------------------------
def _raw_dtype(dtype: np.dtype) -> bool:
    """Whether an array of ``dtype`` is fully described by its raw bytes.

    Object arrays hold pointers and structured (void) dtypes a record
    layout that the dtype string does not carry, so neither can travel.
    """
    return not dtype.hasobject and dtype.kind != "V" and dtype.itemsize > 0


def _shippable(array: np.ndarray) -> np.ndarray:
    if not _raw_dtype(array.dtype):
        raise ProtocolError(f"cannot encode {array.dtype} array for the wire")
    return array


def array_bytes(value: Any) -> int:
    """Bytes of array payload ``value`` puts on the wire (its frame's buffers)."""
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, HotspotInput):
        return value.temperature.nbytes + value.power.nbytes
    if isinstance(value, (tuple, list)):
        return sum(array_bytes(item) for item in value)
    if isinstance(value, dict):
        return sum(array_bytes(item) for item in value.values())
    return 0


def to_wire(value: Any) -> Any:
    """Encode ``value`` into the frame's tagged form.

    The result is JSON-representable except for NumPy arrays, which stay
    in place: :func:`encode_frame` ships them as out-of-band buffers.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, np.ndarray):
        return _shippable(value)
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, HotspotInput):
        return {
            "__kind__": "hotspot",
            "size": value.size,
            "name": value.name,
            "temperature": to_wire(value.temperature),
            "power": to_wire(value.power),
        }
    if isinstance(value, tuple):
        return {"__kind__": "tuple", "items": [to_wire(item) for item in value]}
    if isinstance(value, list):
        return [to_wire(item) for item in value]
    if isinstance(value, dict):
        encoded = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise ProtocolError(f"dict keys must be strings on the wire, got {key!r}")
            if key == "__kind__":
                raise ProtocolError("dict key '__kind__' is reserved by the protocol")
            encoded[key] = to_wire(item)
        return encoded
    raise ProtocolError(f"cannot encode {type(value).__name__} value for the wire")


def from_wire(value: Any) -> Any:
    """Decode a :func:`to_wire` value (inverse; arrays pass through).

    Arrays arrive already decoded: :func:`decode_body` resolves their tags.
    """
    if isinstance(value, list):
        return [from_wire(item) for item in value]
    if isinstance(value, dict):
        kind = value.get("__kind__")
        if kind is None:
            return {key: from_wire(item) for key, item in value.items()}
        if kind == "hotspot":
            return HotspotInput(
                size=int(value["size"]),
                temperature=from_wire(value["temperature"]),
                power=from_wire(value["power"]),
                name=str(value["name"]),
            )
        if kind == "tuple":
            return tuple(from_wire(item) for item in value["items"])
        raise ProtocolError(f"unknown wire tag {kind!r}")
    return value


# ---------------------------------------------------------------------------
# Request / response codec
# ---------------------------------------------------------------------------
def request_to_wire(request: ServeRequest) -> dict:
    wire = {
        "request_id": request.request_id,
        "app": request.app,
        "inputs": to_wire(request.inputs),
        "error_budget": request.error_budget,
        "arrival_ms": request.arrival_ms,
        "latency_budget_ms": request.latency_budget_ms,
        "priority": request.priority,
    }
    if request.trace_id is not None:
        # Observability correlation id: out-of-band, omitted when unset so
        # untraced frames are byte-identical to the pre-tracing protocol.
        wire["trace_id"] = request.trace_id
    return wire


def request_from_wire(data: dict) -> ServeRequest:
    return ServeRequest(
        request_id=int(data["request_id"]),
        app=str(data["app"]),
        inputs=from_wire(data["inputs"]),
        error_budget=float(data["error_budget"]),
        arrival_ms=float(data["arrival_ms"]),
        latency_budget_ms=(
            None if data.get("latency_budget_ms") is None else float(data["latency_budget_ms"])
        ),
        priority=int(data.get("priority", 0)),
        trace_id=None if data.get("trace_id") is None else str(data["trace_id"]),
    )


def response_to_wire(response: ServeResponse) -> dict:
    return {
        "request_id": response.request_id,
        "app": response.app,
        "config_label": response.config_label,
        "output": None if response.output is None else to_wire(response.output),
        "error": response.error,
        "rejected": response.rejected,
        "fallback": response.fallback,
        "cache_hit": response.cache_hit,
        "batch_size": response.batch_size,
        "queue_delay_ms": response.queue_delay_ms,
        "service_time_ms": response.service_time_ms,
        "completed_ms": response.completed_ms,
        "metadata": to_wire(response.metadata),
    }


def response_from_wire(data: dict) -> ServeResponse:
    output = data.get("output")
    return ServeResponse(
        request_id=int(data["request_id"]),
        app=str(data["app"]),
        config_label=str(data["config_label"]),
        output=None if output is None else from_wire(output),
        error=None if data.get("error") is None else float(data["error"]),
        rejected=bool(data.get("rejected", False)),
        fallback=bool(data.get("fallback", False)),
        cache_hit=bool(data.get("cache_hit", False)),
        batch_size=int(data.get("batch_size", 1)),
        queue_delay_ms=float(data.get("queue_delay_ms", 0.0)),
        service_time_ms=float(data.get("service_time_ms", 0.0)),
        completed_ms=float(data.get("completed_ms", 0.0)),
        metadata=from_wire(data.get("metadata", {})),
    )


def error_frame(message: str, request_id: int | None = None) -> dict:
    """An ``error`` frame, request-scoped when ``request_id`` is given.

    A request-scoped error fails exactly that request (the front-end
    answers it with an explicit failed response and keeps the trace
    going); an unscoped error is fatal for the worker that sent it and
    triggers recovery (respawn and replay) on the front-end.
    """
    frame: dict = {"type": "error", "error": str(message)}
    if request_id is not None:
        frame["request_id"] = int(request_id)
    return frame


# ---------------------------------------------------------------------------
# Frame codec
# ---------------------------------------------------------------------------
@functools.lru_cache(maxsize=256)
def _dtype_name(dtype: np.dtype) -> str:
    """The array tag's dtype string, formatted once per dtype."""
    return str(dtype)


def _encode(message: dict, table: ArrayTable | None) -> tuple:
    """``message``'s frame parts: ``(body length, header, buffers, new, refs)``.

    ``new`` lists the arrays the frame gives new slots, in slot order, and
    ``refs`` counts its ``ref`` tags.  ``table`` itself does not change.
    """
    buffers: list[np.ndarray] = []
    payload = 0
    mapped = {} if table is None else table.ids
    first = 0 if table is None else len(table.arrays)
    room = -1 if table is None else TABLE_BYTES - table.nbytes
    new: list[np.ndarray] = []
    new_ids: dict[int, int] = {}
    refs = 0

    def out_of_band(value: Any) -> dict:
        # json calls this for every value it cannot encode, in emission
        # order, which is the order the decoder resolves the tags in.
        nonlocal payload, room, refs
        slot = mapped.get(id(value))
        if slot is None:
            slot = new_ids.get(id(value))
        if slot is not None:
            refs += 1
            return {"__kind__": "ref", "slot": slot}
        if not isinstance(value, np.ndarray):
            raise ProtocolError(f"cannot encode {type(value).__name__} value for the wire")
        array = _shippable(value)
        tag = {
            "__kind__": "ndarray",
            "dtype": _dtype_name(array.dtype),
            "shape": list(array.shape),
            "buf": [payload, array.nbytes],
        }
        if array.nbytes <= room:
            tag["slot"] = new_ids[id(array)] = first + len(new)
            new.append(array)
            room -= array.nbytes
        buffers.append(np.ascontiguousarray(array))
        payload += array.nbytes
        return tag

    header = json.dumps(
        message, sort_keys=True, separators=(",", ":"), default=out_of_band
    ).encode("utf-8")
    return HEADER_LENGTH.size + len(header) + payload, header, buffers, new, refs


def encode_frame(message: dict, table: ArrayTable | None = None) -> bytes:
    """One wire frame: body length, JSON header length, JSON header, buffers.

    With a ``table``, an array it maps travels as a ``ref`` and a new one
    takes the next slot while the table has room.  Only a frame that is
    built changes the table: its new slots are committed, or, for a
    :data:`TRACE_END` frame, the table is emptied.  A frame over
    :data:`MAX_FRAME_BYTES` raises and leaves the table as it was.
    """
    length, header, buffers, new, refs = _encode(message, table)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {length} bytes exceeds {MAX_FRAME_BYTES}")
    if table is not None:
        table.by_value += len(buffers)
        table.by_ref += refs
        if message.get("type") in TRACE_END:
            table.clear()
        else:
            for array in new:
                table.ids[id(array)] = len(table.arrays)
                table.arrays.append(array)
                table.nbytes += array.nbytes
    return b"".join([FRAME_HEADER.pack(length), HEADER_LENGTH.pack(len(header)), header, *buffers])


def frame_fits(message: dict, table: ArrayTable | None = None) -> bool:
    """Whether :func:`encode_frame` would take ``message`` with ``table`` now.

    A dry run: it encodes the header but builds no frame and changes
    nothing.
    """
    return _encode(message, table)[0] <= MAX_FRAME_BYTES


@functools.lru_cache(maxsize=256)
def _parse_dtype(text: str) -> np.dtype | None:
    """The dtype an array tag names, parsed once per string; ``None`` if unusable."""
    try:
        dtype = np.dtype(text)
    except (TypeError, ValueError, SyntaxError):  # NumPy parses some strings as Python
        return None
    return dtype if _raw_dtype(dtype) else None


def _tag_dtype(text: Any) -> np.dtype:
    dtype = _parse_dtype(text) if isinstance(text, str) else None
    if dtype is None:
        raise ProtocolError(f"array tag has unusable dtype {text!r}")
    return dtype


def decode_body(body: bytes, table: ArrayTable | None = None) -> dict:
    """Decode one frame body; every malformation raises :class:`ProtocolError`.

    With a ``table``, an array that carries a slot is kept under it, a
    ``ref`` decodes to a copy of the kept array, and a :data:`TRACE_END`
    frame empties the table once it is decoded.
    """
    if len(body) < HEADER_LENGTH.size:
        raise ProtocolError(f"frame body of {len(body)} bytes has no header length")
    (header_length,) = HEADER_LENGTH.unpack_from(body)
    start = HEADER_LENGTH.size + header_length
    if start > len(body):
        raise ProtocolError(f"header of {header_length} bytes runs past a {len(body)}-byte body")
    cursor = start

    def resolve(tag: dict) -> Any:
        # json calls this for each object as it closes.  Array tags hold no
        # objects, so they arrive in emission order, and their buffers must
        # tile the payload: each starts where the previous one ended.
        nonlocal cursor
        kind = tag.get("__kind__")
        if kind == "ref":
            slot = tag.get("slot")
            if table is None or type(slot) is not int or not 0 <= slot < len(table.arrays):
                raise ProtocolError(f"ref to array slot {slot!r}, which this end does not hold")
            table.by_ref += 1
            return table.arrays[slot].copy()
        if kind != "ndarray":
            return tag
        dtype = _tag_dtype(tag.get("dtype"))
        shape, buf = tag.get("shape"), tag.get("buf")
        if not (isinstance(shape, list) and all(type(n) is int and n >= 0 for n in shape)):
            raise ProtocolError(f"array tag has malformed shape {shape!r}")
        if not (isinstance(buf, list) and len(buf) == 2 and all(type(n) is int for n in buf)):
            raise ProtocolError(f"array tag has malformed buffer {buf!r}")
        offset, nbytes = buf
        if start + offset != cursor:
            raise ProtocolError(f"array buffer at {offset} does not start at {cursor - start}")
        count = math.prod(shape)
        if nbytes != count * dtype.itemsize:
            raise ProtocolError(f"array buffer of {nbytes} bytes does not hold {shape} {dtype}")
        if cursor + nbytes > len(body):
            raise ProtocolError(f"array buffer at {offset} runs past the body")
        try:
            # Copy out: the array owns its memory, is writable and does not
            # keep the whole frame alive.
            array = np.frombuffer(body, dtype, count, cursor).reshape(shape).copy()
        except ValueError as exc:
            raise ProtocolError(f"undecodable array: {exc}") from None
        cursor += nbytes
        if table is not None:
            table.by_value += 1
            slot = tag.get("slot")
            if slot is not None:
                if type(slot) is not int or slot != len(table.arrays):
                    raise ProtocolError(f"array slot {slot!r} is not the next free slot")
                if table.nbytes + nbytes > TABLE_BYTES:
                    raise ProtocolError(f"array slot {slot} overflows the table's bound")
                table.arrays.append(array)
                table.nbytes += nbytes
        return array

    try:
        header = body[HEADER_LENGTH.size : start].decode("utf-8")
        message = json.loads(header, object_hook=resolve)
    except (ValueError, RecursionError) as exc:
        raise ProtocolError(f"undecodable frame header: {exc}") from None
    if cursor != len(body):
        raise ProtocolError(f"array buffers cover {cursor - start} of {len(body) - start} bytes")
    if not isinstance(message, dict):
        raise ProtocolError(f"frame header must be a JSON object, got {type(message).__name__}")
    if table is not None and message.get("type") in TRACE_END:
        table.clear()
    return message


def _read_exact(stream: BinaryIO, n: int) -> bytes | None:
    """Read exactly ``n`` bytes; ``None`` on immediate EOF, error mid-read."""
    chunks: list[bytes] = []
    remaining = n
    while remaining:
        chunk = stream.read(remaining)
        if not chunk:
            if remaining == n:
                return None
            raise ProtocolError(f"stream truncated {remaining} bytes short of a frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(stream: BinaryIO, table: ArrayTable | None = None) -> dict | None:
    """Read one frame from a blocking binary stream (``None`` on clean EOF)."""
    header = _read_exact(stream, FRAME_HEADER.size)
    if header is None:
        return None
    (length,) = FRAME_HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame length {length} exceeds {MAX_FRAME_BYTES}")
    body = _read_exact(stream, length)
    if body is None:
        raise ProtocolError("stream truncated between frame header and body")
    return decode_body(body, table)


def write_frame(stream: BinaryIO, message: dict, table: ArrayTable | None = None) -> None:
    """Write one frame to a blocking binary stream and flush it."""
    stream.write(encode_frame(message, table))
    stream.flush()


async def read_frame_async(
    reader: asyncio.StreamReader, table: ArrayTable | None = None
) -> dict | None:
    """Read one frame from an asyncio stream (``None`` on clean EOF)."""
    try:
        header = await reader.readexactly(FRAME_HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError("stream truncated inside a frame header") from None
    (length,) = FRAME_HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame length {length} exceeds {MAX_FRAME_BYTES}")
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError:
        raise ProtocolError("stream truncated between frame header and body") from None
    return decode_body(body, table)


async def write_frame_async(
    writer: asyncio.StreamWriter, message: dict, table: ArrayTable | None = None
) -> None:
    """Write one frame to an asyncio stream and drain the transport."""
    writer.write(encode_frame(message, table))
    await writer.drain()
