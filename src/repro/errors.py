"""Exception hierarchy shared by every subsystem of the reproduction.

Grouping all exceptions in one module keeps ``except`` clauses explicit:
callers can catch :class:`ReproError` to trap anything raised by this
library while letting genuine programming errors (``TypeError`` etc.)
propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` package."""


class ConfigError(ReproError):
    """An invalid configuration value was supplied."""


class NandError(ReproError):
    """Base class for NAND device model violations."""


class AddressError(NandError):
    """A chip/block/page or flat address is out of range."""


class ProgramOrderError(NandError):
    """A program command violated NAND's in-order page programming rule."""


class ReadFreePageError(NandError):
    """A read targeted a page that has not been programmed since erase."""


class FtlError(ReproError):
    """Base class for flash-translation-layer violations."""


class OutOfSpaceError(FtlError):
    """The FTL ran out of free physical space and GC could not reclaim more."""


class MappingError(FtlError):
    """The logical-to-physical mapping was queried or mutated inconsistently."""


class VirtualBlockError(FtlError):
    """A virtual-block lifecycle or pairing constraint was violated."""


class TraceError(ReproError):
    """Base class for trace parsing/generation problems."""


class TraceFormatError(TraceError):
    """An input trace file did not match the expected format."""
