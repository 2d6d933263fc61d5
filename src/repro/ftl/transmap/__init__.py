"""Demand-paged mapping subsystem (the DFTL translation stack).

The pieces the ``dftl`` FTL composes:

* :class:`MappingConfig` — the serializable knobs (cache budget,
  translation-page geometry, eviction batch size);
* :class:`CachedMappingTable` — the bounded in-RAM cache of hot
  LPN -> PPN entries, with LRU order and dirty tracking;
* :class:`GlobalTranslationDirectory` — where each translation page
  currently lives on flash (TVPN -> PPN, with the reverse map GC needs);
* :class:`LazyPageMapTable` — a sparse, dict-backed drop-in for
  :class:`~repro.ftl.mapping.PageMapTable`, the ground-truth map only
  for geometries past :data:`~repro.ftl.mapping.FULL_MAP_MAX_ENTRIES`
  (which no other FTL can run), so they construct without allocating
  the full map.
"""

from repro.ftl.transmap.cache import CachedMappingTable
from repro.ftl.transmap.config import MappingConfig
from repro.ftl.transmap.directory import GlobalTranslationDirectory
from repro.ftl.transmap.lazymap import LazyPageMapTable

__all__ = [
    "CachedMappingTable",
    "GlobalTranslationDirectory",
    "LazyPageMapTable",
    "MappingConfig",
]
