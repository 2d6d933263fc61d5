"""MSR Cambridge block trace format support.

The MSR Cambridge traces (Narayanan et al., "Write Off-Loading", the
paper's ref [13]) are CSV files with one request per line::

    Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime

* ``Timestamp`` — Windows filetime, 100 ns ticks since 1601-01-01.
* ``Type`` — ``Read`` or ``Write``.
* ``Offset``/``Size`` — bytes.
* ``ResponseTime`` — device service time in 100 ns ticks (ignored on
  load; the simulator produces its own).

The reader normalizes timestamps so the first request arrives at t=0.
A writer is included so synthetic traces can be stored in the same
format and round-tripped.
"""

from __future__ import annotations

import io
from array import array
from pathlib import Path
from typing import TextIO

from repro.errors import TraceFormatError
from repro.traces.record import OPS, OpType, Trace

#: 100 ns ticks per microsecond in Windows filetime.
_TICKS_PER_US = 10


def _parse_line(line: str, line_no: int) -> tuple[OpType, int, int, float] | None:
    """Parse one MSRC CSV line into ``(op, offset, size, timestamp_us)``."""
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        return None
    fields = stripped.split(",")
    if len(fields) < 6:
        raise TraceFormatError(
            f"line {line_no}: expected >= 6 comma-separated fields, got {len(fields)}"
        )
    try:
        timestamp_us = int(fields[0]) / _TICKS_PER_US
        op = OpType.parse(fields[3])
        offset = int(fields[4])
        size = int(fields[5])
    except (ValueError, TraceFormatError) as exc:
        raise TraceFormatError(f"line {line_no}: {exc}") from exc
    if size <= 0:
        return None
    return op, offset, size, timestamp_us


def read_msr_stream(
    stream: TextIO,
    name: str = "msr",
    disk_filter: int | None = None,
    max_requests: int | None = None,
) -> Trace:
    """Parse MSRC CSV from an open text stream.

    Rows go straight into the trace's columns; their offsets and sizes
    are checked once, when the trace is built.
    """
    ops = bytearray()
    offsets = array("q")
    sizes = array("q")
    stamps = array("d")
    for line_no, line in enumerate(stream, start=1):
        if max_requests is not None and len(ops) >= max_requests:
            break
        if disk_filter is not None:
            fields = line.split(",")
            if len(fields) >= 3:
                try:
                    if int(fields[2]) != disk_filter:
                        continue
                except ValueError:
                    pass
        row = _parse_line(line, line_no)
        if row is not None:
            op, offset, size, timestamp_us = row
            ops.append(OPS.index(op))
            offsets.append(offset)
            sizes.append(size)
            stamps.append(timestamp_us)
    if stamps:
        t0 = min(stamps)
        stamps = array("d", [stamp - t0 for stamp in stamps])
    return Trace.from_columns(ops, offsets, sizes, stamps, name=name)


def read_msr_csv(
    path: str | Path,
    disk_filter: int | None = None,
    max_requests: int | None = None,
) -> Trace:
    """Parse an MSRC CSV file into a :class:`Trace`.

    Parameters
    ----------
    path:
        File to read.
    disk_filter:
        If given, keep only requests whose DiskNumber equals this value
        (MSRC hosts expose several disks per file).
    max_requests:
        Stop after this many parsed requests.
    """
    path = Path(path)
    with path.open("r", encoding="utf-8", errors="replace") as handle:
        return read_msr_stream(
            handle, name=path.stem, disk_filter=disk_filter, max_requests=max_requests
        )


def write_msr_csv(
    trace: Trace,
    path: str | Path | None = None,
    hostname: str = "synth",
    disk: int = 0,
) -> str:
    """Serialize a trace in MSRC CSV format.

    Returns the CSV text; also writes it to ``path`` when given.
    """
    buffer = io.StringIO()
    for req in trace:
        ticks = int(round(req.timestamp_us * _TICKS_PER_US))
        op = "Read" if req.is_read else "Write"
        buffer.write(f"{ticks},{hostname},{disk},{op},{req.offset},{req.size},0\n")
    text = buffer.getvalue()
    if path is not None:
        Path(path).write_text(text, encoding="utf-8")
    return text
