"""The FTL registry: every FTL kind by name, and :func:`make_ftl`.

Every experiment is a :class:`~repro.scenario.spec.ScenarioSpec`
executed by :mod:`repro.scenario.run`, which builds its FTL here.
"""

from __future__ import annotations

from repro.core.config import PPBConfig
from repro.core.ppb_ftl import PPBFTL
from repro.errors import ConfigError
from repro.ftl.base import BaseFTL
from repro.ftl.conventional import ConventionalFTL
from repro.ftl.dftl import DFTL
from repro.ftl.fast import FastFTL
from repro.ftl.transmap import MappingConfig
from repro.nand.device import NandDevice
from repro.reliability.manager import ReliabilityManager
from repro.reliability.refresh import RefreshPolicy

#: Registered FTL classes by kind; each builds itself from a scenario's
#: sections (``from_sections``) and reports the blocks it holds open
#: (``open_blocks``).
FTL_CLASSES: dict[str, type[BaseFTL]] = {
    "conventional": ConventionalFTL,
    "fast": FastFTL,
    "ppb": PPBFTL,
    "dftl": DFTL,
}


def make_ftl(
    kind: str,
    device: NandDevice,
    ppb_config: PPBConfig | None = None,
    reliability: ReliabilityManager | None = None,
    refresh: RefreshPolicy | None = None,
    mapping: MappingConfig | None = None,
) -> BaseFTL:
    """Instantiate an FTL by name ("conventional", "fast", "ppb", "dftl")."""
    try:
        cls = FTL_CLASSES[kind]
    except KeyError:
        raise ConfigError(
            f"unknown FTL {kind!r}; choose from {sorted(FTL_CLASSES)}"
        ) from None
    return cls.from_sections(device, ppb_config, reliability, refresh, mapping)
