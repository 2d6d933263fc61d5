"""AST-based determinism & simulator-invariant analyzer (``repro lint``).

Rules shipped (see :mod:`repro.lint.rules` for the implementations):

======== ==============================================================
DET001   no global-state / unseeded RNG (counter-based streams only)
DET002   no wall-clock reads anywhere under ``src/repro``
DET003   no ordering-sensitive consumption of unordered sets
SPEC001  ScenarioSpec closure is frozen + round-trip serializable
REG001   every BaseFTL subclass is in FTL_CLASSES; --ftl choices match it
OPLOG001 device time billed only via the op-log command entry points
======== ==============================================================

Suppress one audited site with a line-scoped pragma::

    # repro-lint: disable=DET003

Everything here is pure-AST: the analyzer never imports the code it
checks, so it works on trees that would fail to import.
"""

from repro.lint.engine import (
    Finding,
    LintReport,
    PRAGMA_PREFIX,
    Project,
    SourceFile,
    run_lint,
)
from repro.lint.rules import RULES, Rule

__all__ = [
    "Finding",
    "LintReport",
    "PRAGMA_PREFIX",
    "Project",
    "Rule",
    "RULES",
    "SourceFile",
    "run_lint",
]
