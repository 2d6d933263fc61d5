"""I/O request records and trace containers.

A trace is an ordered list of byte-addressed read/write requests.  The
SSD front end (:mod:`repro.sim.ssd`) splits each request into logical
pages at replay time, so one trace can be replayed against devices with
different page sizes — exactly what Fig. 12/15 of the paper need (the
same trace on 8 KB and 16 KB pages).

A :class:`Trace` stores its requests as four typed columns rather than
as one Python object per request: op codes in a ``bytearray`` (code
``i`` is ``OPS[i]``), byte offsets and sizes in ``array('q')`` and
arrival times in ``array('d')`` — 25 bytes a request instead of a
couple of hundred.  :class:`IORequest` stays the public record:
iterating or indexing a trace builds one on demand.
"""

from __future__ import annotations

import enum
from array import array
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from repro.errors import TraceError


class OpType(enum.Enum):
    """Request direction."""

    READ = "R"
    WRITE = "W"
    #: host discard: the byte range's contents are dropped.  The FTL
    #: unmaps the pages (no program happens), which frees them for GC.
    TRIM = "T"

    @classmethod
    def parse(cls, text: str) -> "OpType":
        """Parse common spellings: R/W/T, Read/Write/Trim, case-insensitive."""
        norm = text.strip().lower()
        if norm in ("r", "read", "rd", "0"):
            return cls.READ
        if norm in ("w", "write", "wr", "1"):
            return cls.WRITE
        if norm in ("t", "trim", "discard", "unmap"):
            return cls.TRIM
        raise TraceError(f"unrecognized op type {text!r}")


#: The op column's code book: code ``i`` stands for ``OPS[i]``, and
#: ``OPS.index(op)`` is the code of ``op`` (an identity scan of three
#: entries, cheaper than hashing an enum member).
OPS: tuple[OpType, ...] = (OpType.READ, OpType.WRITE, OpType.TRIM)
READ, WRITE, TRIM = (OPS.index(op) for op in (OpType.READ, OpType.WRITE, OpType.TRIM))


def _check_request(offset: int, size: int) -> None:
    """The checks every request passes, as a record or as a trace row."""
    if offset < 0:
        raise TraceError(f"negative offset {offset}")
    if size <= 0:
        raise TraceError(f"non-positive size {size}")


@dataclass(frozen=True, slots=True)
class IORequest:
    """One host request: direction, byte offset, byte length, arrival time."""

    op: OpType
    offset: int
    size: int
    timestamp_us: float = 0.0

    def __post_init__(self) -> None:
        _check_request(self.offset, self.size)

    @property
    def is_read(self) -> bool:
        """True for reads."""
        return self.op is OpType.READ

    @property
    def end_offset(self) -> int:
        """One past the last byte touched."""
        return self.offset + self.size

    def pages(self, page_size: int) -> range:
        """Logical page numbers this request touches for a given page size."""
        first = self.offset // page_size
        last = (self.end_offset - 1) // page_size
        return range(first, last + 1)


class Trace:
    """An ordered, named sequence of I/O requests, stored as columns.

    ``ops``, ``offsets``, ``sizes`` and ``timestamps_us`` hold request
    ``i`` at index ``i`` (see the module docstring for their types).
    They are read-only by contract: transformations build new columns,
    and a transformation that changes nothing shares them.
    """

    __slots__ = ("ops", "offsets", "sizes", "timestamps_us", "name")

    def __init__(self, requests: Iterable[IORequest], name: str = "trace") -> None:
        ops = bytearray()
        offsets = array("q")
        sizes = array("q")
        stamps = array("d")
        for request in requests:
            ops.append(OPS.index(request.op))
            offsets.append(request.offset)
            sizes.append(request.size)
            stamps.append(request.timestamp_us)
        self._adopt(ops, offsets, sizes, stamps, name)

    @classmethod
    def from_columns(
        cls,
        ops: bytearray,
        offsets: array,
        sizes: array,
        timestamps_us: array,
        name: str = "trace",
    ) -> "Trace":
        """A trace that adopts (does not copy) the four columns.

        Every row passes :class:`IORequest`'s checks here, once, so a
        bad offset or size raises the same :class:`TraceError` it
        would as a record.
        """
        trace = cls.__new__(cls)
        trace._adopt(ops, offsets, sizes, timestamps_us, name)
        return trace

    def _adopt(
        self, ops: bytearray, offsets: array, sizes: array, stamps: array, name: str
    ) -> None:
        count = len(ops)
        if not len(offsets) == len(sizes) == len(stamps) == count:
            raise TraceError(
                f"trace columns differ in length: {count} ops, {len(offsets)} "
                f"offsets, {len(sizes)} sizes, {len(stamps)} timestamps"
            )
        if count:
            top = int(np.frombuffer(ops, dtype=np.uint8).max())
            if top >= len(OPS):
                raise TraceError(f"unknown op code {top}; codes index {OPS}")
            if (
                np.frombuffer(offsets, dtype=np.int64).min() < 0
                or np.frombuffer(sizes, dtype=np.int64).min() <= 0
            ):
                for offset, size in zip(offsets, sizes):
                    _check_request(offset, size)
        self.ops = ops
        self.offsets = offsets
        self.sizes = sizes
        self.timestamps_us = stamps
        self.name = name

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self) -> Iterator[IORequest]:
        for code, offset, size, stamp in zip(
            self.ops, self.offsets, self.sizes, self.timestamps_us
        ):
            yield IORequest(OPS[code], offset, size, stamp)

    def __getitem__(self, index: int) -> IORequest:
        return IORequest(
            OPS[self.ops[index]],
            self.offsets[index],
            self.sizes[index],
            self.timestamps_us[index],
        )

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------

    def _sizes_of(self, code: int) -> int:
        """Total bytes of the requests with op code ``code``."""
        ops = np.frombuffer(self.ops, dtype=np.uint8)
        sizes = np.frombuffer(self.sizes, dtype=np.int64)
        return int(sizes[ops == code].sum())

    @property
    def read_count(self) -> int:
        """Number of read requests."""
        return self.ops.count(READ)

    @property
    def write_count(self) -> int:
        """Number of write requests."""
        return self.ops.count(WRITE)

    @property
    def read_fraction(self) -> float:
        """Fraction of requests that are reads (0.0 for an empty trace)."""
        if not self.ops:
            return 0.0
        return self.read_count / len(self.ops)

    def footprint_bytes(self) -> int:
        """Highest byte offset touched plus one (0 for an empty trace)."""
        if not self.ops:
            return 0
        offsets = np.frombuffer(self.offsets, dtype=np.int64)
        sizes = np.frombuffer(self.sizes, dtype=np.int64)
        return int((offsets + sizes).max())

    @property
    def bytes_read(self) -> int:
        """Total bytes read."""
        return self._sizes_of(READ)

    @property
    def bytes_written(self) -> int:
        """Total bytes written."""
        return self._sizes_of(WRITE)

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------

    def _select(
        self,
        keep: np.ndarray,
        name: str,
        offsets: np.ndarray | None = None,
        sizes: np.ndarray | None = None,
    ) -> "Trace":
        """The rows ``keep`` marks, optionally with new offsets/sizes."""
        if offsets is None:
            offsets = np.frombuffer(self.offsets, dtype=np.int64)
        if sizes is None:
            sizes = np.frombuffer(self.sizes, dtype=np.int64)
        ops = np.frombuffer(self.ops, dtype=np.uint8)
        stamps = np.frombuffer(self.timestamps_us, dtype=np.float64)
        return Trace.from_columns(
            bytearray(ops[keep].tobytes()),
            array("q", offsets[keep].tobytes()),
            array("q", sizes[keep].tobytes()),
            array("d", stamps[keep].tobytes()),
            name=name,
        )

    def fit_to(self, capacity_bytes: int, align: int = 4096) -> "Trace":
        """Wrap request offsets into ``capacity_bytes`` of logical space.

        Used when replaying a trace whose footprint exceeds the simulated
        device: offsets wrap modulo the capacity (aligned down), sizes
        are clamped so requests never cross the end of the device, and
        requests clamped to nothing are dropped.  This mirrors how
        trace-driven flash simulators shrink MSRC traces.  The
        arithmetic is vectorized over the columns, and a trace the wrap
        leaves untouched (the common case when the generator already
        targeted a footprint inside the device) shares them.
        """
        if capacity_bytes <= 0:
            raise TraceError(f"capacity_bytes must be positive, got {capacity_bytes}")
        name = f"{self.name}[fit {capacity_bytes // 2**20}MiB]"
        offsets = np.frombuffer(self.offsets, dtype=np.int64)
        sizes = np.frombuffer(self.sizes, dtype=np.int64)
        new_offsets = (offsets % capacity_bytes) // align * align
        new_sizes = np.minimum(sizes, capacity_bytes - new_offsets)
        if np.array_equal(new_offsets, offsets) and np.array_equal(new_sizes, sizes):
            return Trace.from_columns(
                self.ops, self.offsets, self.sizes, self.timestamps_us, name=name
            )
        return self._select(new_sizes > 0, name, new_offsets, new_sizes)

    def head(self, n: int) -> "Trace":
        """First ``n`` requests as a new trace."""
        return Trace.from_columns(
            self.ops[:n],
            self.offsets[:n],
            self.sizes[:n],
            self.timestamps_us[:n],
            name=f"{self.name}[:{n}]",
        )

    def reads_only(self) -> "Trace":
        """New trace containing only the read requests."""
        return self._select(
            np.frombuffer(self.ops, dtype=np.uint8) == READ, f"{self.name}[reads]"
        )

    def __repr__(self) -> str:
        return (
            f"Trace({self.name!r}, n={len(self.ops)}, "
            f"reads={self.read_count}, writes={self.write_count})"
        )
