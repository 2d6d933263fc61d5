"""The FTL registry: every FTL kind by name, and :func:`make_ftl`.

Every experiment is a :class:`~repro.scenario.spec.ScenarioSpec`
executed by :mod:`repro.scenario.run`, which builds its FTL here.
"""

from __future__ import annotations

from typing import Callable

from repro.core.config import PPBConfig
from repro.core.ppb_ftl import PPBFTL
from repro.errors import ConfigError
from repro.ftl.conventional import ConventionalFTL
from repro.ftl.dftl import DFTL
from repro.ftl.fast import FastFTL
from repro.ftl.reliability_hooks import ReliabilityHost
from repro.ftl.transmap import MappingConfig
from repro.nand.device import NandDevice
from repro.reliability.manager import ReliabilityManager
from repro.reliability.refresh import RefreshPolicy


def _make_conventional(
    device: NandDevice,
    ppb_config: PPBConfig | None,
    reliability: ReliabilityManager | None,
    refresh: RefreshPolicy | None,
    mapping: MappingConfig | None,
) -> ConventionalFTL:
    return ConventionalFTL(device, reliability=reliability, refresh=refresh)


def _make_fast(
    device: NandDevice,
    ppb_config: PPBConfig | None,
    reliability: ReliabilityManager | None,
    refresh: RefreshPolicy | None,
    mapping: MappingConfig | None,
) -> FastFTL:
    return FastFTL(device, reliability=reliability, refresh=refresh)


def _make_ppb(
    device: NandDevice,
    ppb_config: PPBConfig | None,
    reliability: ReliabilityManager | None,
    refresh: RefreshPolicy | None,
    mapping: MappingConfig | None,
) -> PPBFTL:
    return PPBFTL(device, config=ppb_config, reliability=reliability, refresh=refresh)


def _make_dftl(
    device: NandDevice,
    ppb_config: PPBConfig | None,
    reliability: ReliabilityManager | None,
    refresh: RefreshPolicy | None,
    mapping: MappingConfig | None,
) -> DFTL:
    return DFTL(device, mapping=mapping, reliability=reliability, refresh=refresh)


#: Registered FTL classes by kind (used to *derive* capability sets).
FTL_CLASSES: dict[str, type] = {
    "conventional": ConventionalFTL,
    "fast": FastFTL,
    "ppb": PPBFTL,
    "dftl": DFTL,
}

#: Registered FTL factories; each takes
#: (device, ppb_config, reliability, refresh, mapping).
FTL_FACTORIES: dict[str, Callable[..., object]] = {
    "conventional": _make_conventional,
    "fast": _make_fast,
    "ppb": _make_ppb,
    "dftl": _make_dftl,
}

#: FTLs that accept the reliability stack — derived from the hook
#: protocol rather than hand-listed: an FTL hosts the stack iff it
#: inherits :class:`~repro.ftl.reliability_hooks.ReliabilityHost`.
#: Today that is all three; the guard in :func:`make_ftl` exists for
#: future registrations that skip the mixin.
RELIABILITY_FTLS = tuple(
    kind for kind, cls in FTL_CLASSES.items() if issubclass(cls, ReliabilityHost)
)


def make_ftl(
    kind: str,
    device: NandDevice,
    ppb_config: PPBConfig | None = None,
    reliability: ReliabilityManager | None = None,
    refresh: RefreshPolicy | None = None,
    mapping: MappingConfig | None = None,
) -> object:
    """Instantiate an FTL by name ("conventional", "fast", "ppb", "dftl")."""
    try:
        factory = FTL_FACTORIES[kind]
    except KeyError:
        raise ConfigError(
            f"unknown FTL {kind!r}; choose from {sorted(FTL_FACTORIES)}"
        ) from None
    if reliability is not None and kind not in RELIABILITY_FTLS:
        raise ConfigError(
            f"FTL {kind!r} does not support the reliability stack; "
            f"choose from {RELIABILITY_FTLS}"
        )
    return factory(device, ppb_config, reliability, refresh, mapping)

