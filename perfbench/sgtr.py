"""Just enough of the binary trace format (SGTR) to check serve responses.

A `signalc --serve` session answers a stimulus trace with a Hello control
frame followed by an outputs-only trace: the same process name and frame
capacity, no clocks, no inputs, the stimulus's outputs, and for every
stimulus frame a frame carrying only that frame's output section. The
recorded stimulus's outputs come from the recording run, so the expected
response can be derived from the stimulus bytes alone; see
`expected_response`. The layout is documented in src/io/TraceFormat.h.
"""

import struct

MAGIC = b"SGTR"
FRAME_HEADER = struct.Struct("<IIHHI")  # payload, start, count, 0, fnv32
HELLO_BYTES = 16
CTRL_MAGIC = b"SGCT"
CTRL_HELLO = 1

EVENT, BOOLEAN = 1, 2  # TypeKind values; integer and real take 8 bytes


def fnv32(data):
    h = 2166136261
    for b in data:
        h = ((h ^ b) * 16777619) & 0xFFFFFFFF
    return h


def fnv64(data):
    h = 14695981039346656037
    for b in data:
        h = ((h ^ b) * 1099511628211) & 0xFFFFFFFFFFFFFFFF
    return h


def value_bytes(kind, n):
    if kind == EVENT:
        return 0
    if kind == BOOLEAN:
        return (n + 7) // 8
    return 8 * n


class Header:
    """A decoded trace header plus the offset of the first frame."""

    def __init__(self, data):
        if data[:4] != MAGIC:
            raise ValueError("not an SGTR trace")
        self.frame_cap, name_len = struct.unpack_from("<HH", data, 8)
        at = 12
        self.name = data[at:at + name_len]
        at += name_len
        (nclocks,) = struct.unpack_from("<H", data, at)
        at += 2
        for _ in range(nclocks):
            (n,) = struct.unpack_from("<H", data, at)
            at += 2 + n
        self.nclocks = nclocks
        self.inputs, at = _signals(data, at)
        self.outputs_at = at
        self.outputs, at = _signals(data, at)
        self.outputs_end = at
        self.end = at + 8  # interface hash


def _signals(data, at):
    """[(type, name bytes)] of one descriptor list, and the offset after it."""
    (count,) = struct.unpack_from("<H", data, at)
    at += 2
    sigs = []
    for _ in range(count):
        kind, n = struct.unpack_from("<BH", data, at)
        sigs.append((kind, data[at + 3:at + 3 + n]))
        at += 3 + n
    return sigs, at


def expected_response(stimulus):
    """The outputs-only trace a serve session must answer `stimulus` with."""
    h = Header(stimulus)
    head = bytearray(stimulus[:12 + len(h.name)])
    head += struct.pack("<HH", 0, 0)  # no clocks, no inputs
    head += stimulus[h.outputs_at:h.outputs_end]
    head += struct.pack("<Q", fnv64(head[4:]))
    out = [bytes(head)]
    at = h.end
    while True:
        payload_len, start, count, _, _ = FRAME_HEADER.unpack_from(stimulus, at)
        at += FRAME_HEADER.size
        if count == 0:
            out.append(FRAME_HEADER.pack(0, start, 0, 0, fnv32(b"")))
            return b"".join(out)
        skip = h.nclocks * ((count + 7) // 8)
        skip += sum(value_bytes(kind, count) for kind, _ in h.inputs)
        section = stimulus[at + skip:at + payload_len]
        out.append(FRAME_HEADER.pack(len(section), start, count, 0,
                                     fnv32(section)))
        out.append(section)
        at += payload_len


def split_hello(response):
    """Checks the leading Hello control frame; returns the trace after it."""
    if (len(response) < HELLO_BYTES or response[:4] != CTRL_MAGIC
            or response[4] != CTRL_HELLO):
        return None
    return response[HELLO_BYTES:]
