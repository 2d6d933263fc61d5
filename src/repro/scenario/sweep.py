"""Generic sweeps: dotted field paths -> cross-products of scenarios.

A :class:`SweepAxis` names one knob by **dotted path** — any field of
:class:`~repro.scenario.spec.ScenarioSpec` or of its nested configs —
and the values to try::

    SweepAxis("device.speed_ratio", (2.0, 4.0))
    SweepAxis("device.num_channels", (1, 2, 4))
    SweepAxis("reliability.base_rber", (1e-4, 2e-4))
    SweepAxis("ppb.reliability_weight", (0.0, 2.0, 8.0))
    SweepAxis("workload_kwargs.zipf_theta", (0.5, 0.95))
    SweepAxis("tenants.db.share", (1.0, 2.0))
    SweepAxis("reread_age_s", (0.0, 2.6e6))
    SweepAxis("arrival.queue_depth", (1, 4, 16, 64))

One path engine serves every reader and writer of these paths —
:func:`get_path`, :func:`set_paths` (``--set``), :func:`sweep`
(``[[sweep]]`` axes) and the scenario-file loader.  It resolves a path
in the spec's :func:`~repro.scenario.serialize.spec_to_dict` form,
checking each segment against the type hints of the class at that
level: a segment after ``tenants`` / ``precondition`` selects an entry
by index or tenant name, and ``workload_kwargs.<key>`` addresses one
generator kwarg.  Writes are assigned into that dict and the spec is
rebuilt (and revalidated) once through
:func:`~repro.scenario.serialize.spec_from_dict`.  A path under an
absent optional section reads and writes that section's defaults, so
``--set reliability.base_rber=2e-4`` alone turns the stack on.

:func:`sweep` expands a base spec and axes into the cross-product (first
axis outermost, values in the order given), each element a frozen
:class:`ScenarioSpec` ready for the memoized
:class:`~repro.scenario.memo.ReplayRunner`.
"""

from __future__ import annotations

import itertools
import types
import typing
from dataclasses import dataclass

from repro.errors import ConfigError
from repro.scenario.serialize import (
    _field_hints,
    _field_kind,
    _to_dict,
    spec_from_dict,
    spec_to_dict,
)
from repro.scenario.spec import ScenarioSpec


@dataclass(frozen=True)
class SweepAxis:
    """One swept knob: a dotted field path and the values to try."""

    path: str
    values: tuple

    def __post_init__(self) -> None:
        if not self.path or not isinstance(self.path, str):
            raise ConfigError(f"sweep axis path must be a non-empty string, got {self.path!r}")
        values = tuple(self.values)
        if not values:
            raise ConfigError(f"sweep axis {self.path!r} needs at least one value")
        object.__setattr__(self, "values", values)

    @property
    def label(self) -> str:
        """Column label for reports: the last path segment."""
        return self.path.rsplit(".", 1)[-1]


# ----------------------------------------------------------------------
# dotted-path access
# ----------------------------------------------------------------------

def _entry_index(entries: list, selector: str, dotted: str) -> int:
    """Resolve a ``tenants``/``precondition`` entry selector: a 0-based
    index, or (tenants) the tenant's name."""
    if not entries:
        raise ConfigError(f"{dotted!r}: the spec has no entries to select from")
    try:
        index = int(selector)
    except ValueError:
        names = [entry.get("name") for entry in entries]
        if selector in names:
            return names.index(selector)
        known = [n for n in names if n is not None]
        raise ConfigError(
            f"{dotted}.{selector}: no entry named {selector!r}; "
            f"use an index 0..{len(entries) - 1}"
            + (f" or a name from {sorted(known)}" if known else "")
        ) from None
    if not 0 <= index < len(entries):
        raise ConfigError(
            f"{dotted}.{selector}: index out of range (have {len(entries)} entries)"
        )
    return index


def _locate(data: dict, path: str) -> tuple[typing.Any, typing.Any, object]:
    """Resolve a dotted path in a spec's :func:`spec_to_dict` form.

    Returns ``(table, key, hint)``: the dict (or, for a whole entry, the
    entry list) holding the addressed value, its key there, and the
    value's type hint.  Each segment is checked against the fields of
    the class at its level, and an absent optional section is filled in
    with its defaults on the way down.
    """
    parts = path.split(".")
    table: typing.Any = data
    cls: typing.Any = ScenarioSpec
    i = 0
    while True:
        dotted = ".".join(parts[: i + 1])
        hints = _field_hints(cls)
        if parts[i] not in hints:
            raise ConfigError(
                f"unknown scenario field {dotted!r}; known fields here: {sorted(hints)}"
            )
        key, hint, rest = parts[i], hints[parts[i]], parts[i + 1 :]
        if not rest:
            return table, key, hint
        kind, inner = _field_kind(hint)
        if kind == "scalar":
            raise ConfigError(f"cannot descend into {dotted!r}: not a config section")
        if kind == "kwargs":
            if len(rest) != 1:
                raise ConfigError(
                    f"workload_kwargs paths have exactly one key segment, got {path!r}"
                )
            return table.setdefault(key, {}), rest[0], inner
        if kind == "section":
            if key not in table:
                table[key] = _to_dict(inner())
            table, cls, i = table[key], inner, i + 1
            continue
        entries = table.get(key, [])
        index = _entry_index(entries, rest[0], dotted)
        if len(rest) == 1:
            return entries, index, inner
        table, cls, i = entries[index], inner, i + 2


def get_path(spec: ScenarioSpec, path: str) -> object:
    """Read the value at a dotted path; ConfigError names the bad segment.

    A path under an absent optional section (``ppb.vb_split`` while
    ``ppb`` is None) reads the section's *default* value — the value the
    engine would effectively use once the section is instantiated.  A
    section or entry path reads its dict form.
    """
    table, key, _ = _locate(spec_to_dict(spec), path)
    return table[key] if isinstance(table, list) else table.get(key)


def set_paths(
    spec: ScenarioSpec, items: typing.Iterable[tuple[str, object]]
) -> ScenarioSpec:
    """A copy of ``spec`` with several dotted paths replaced **at once**.

    Every path is resolved against ``spec`` itself before any value is
    assigned, and the result is validated only once, as a whole — so
    the edits are independent of the order they are listed in: a
    combination that is only valid *together* (``reread_age_s`` plus
    the ``reliability`` section that permits it) works, and renaming a
    tenant does not break another edit that selects it by its old name.
    Values are coerced against the field's declared type (an int lands
    as the float a float field wants), and an out-of-range value raises
    the usual :class:`ConfigError`.
    """
    data = spec_to_dict(spec)
    targets: list[tuple[typing.Any, typing.Any, object]] = []
    for path, value in items:
        table, key, hint = _locate(data, path)
        if _field_kind(hint)[0] != "scalar":
            raise ConfigError(
                f"{path!r} is a config section, not a sweepable scalar; "
                f"sweep one of its fields (e.g. {path}.<field>)"
            )
        targets.append((table, key, value))
    for table, key, value in targets:
        table[key] = value
    return spec_from_dict(data)


# ----------------------------------------------------------------------
# expansion
# ----------------------------------------------------------------------

def sweep(base: ScenarioSpec, axes: typing.Iterable[SweepAxis]) -> list[ScenarioSpec]:
    """Expand axes into the cross-product of scenarios.

    The first axis varies slowest (outermost loop), matching how the
    bespoke sweeps iterate their grids; with no axes the result is
    ``[base]``.  Duplicate paths are rejected — a knob can only be on
    one axis.

    Each grid point applies **all** of its coordinates before the spec
    validates (via :func:`set_paths`), so axes that are only valid
    together — a ``reread_age_s`` axis alongside the ``reliability.*``
    axis that permits it — expand correctly in any axis order.
    """
    axes = list(axes)
    seen: set[str] = set()
    for axis in axes:
        if axis.path in seen:
            raise ConfigError(f"duplicate sweep axis {axis.path!r}")
        seen.add(axis.path)
        get_path(base, axis.path)  # fail fast on a misspelled dotted path
    if not axes:
        return [base]
    return [
        set_paths(base, zip((axis.path for axis in axes), combo))
        for combo in itertools.product(*(axis.values for axis in axes))
    ]


def axis_values(spec: ScenarioSpec, axes: typing.Iterable[SweepAxis]) -> list:
    """The swept coordinates of one expanded spec (report columns)."""
    return [get_path(spec, axis.path) for axis in axes]


# ----------------------------------------------------------------------
# path discovery (the `repro scenario paths` listing)
# ----------------------------------------------------------------------

def _hint_label(hint: object) -> str:
    """Human-readable type label of a field hint (Optionals unwrapped)."""
    origin = typing.get_origin(hint)
    if origin in (typing.Union, types.UnionType):
        members = [a for a in typing.get_args(hint) if a is not type(None)]
        return " | ".join(_hint_label(m) for m in members)
    if isinstance(hint, type):
        return hint.__name__
    return str(hint)


def _value_label(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:g}"
    if isinstance(value, str):
        return repr(value)
    return str(value)


def list_paths(spec: ScenarioSpec | None = None) -> list[tuple[str, str, str]]:
    """Every sweepable dotted path as ``(path, type, default)`` rows.

    ``spec`` supplies the defaults column (and the concrete
    ``workload_kwargs`` / ``tenants`` entries to enumerate); omitted, a
    default :class:`ScenarioSpec` is described.  Optional sections that
    are ``None`` list their would-be defaults, matching how
    :func:`get_path` and ``--set`` auto-instantiate them.
    """
    spec = ScenarioSpec() if spec is None else spec
    rows: list[tuple[str, str, str]] = []

    def describe(obj: object, prefix: str) -> None:
        for name, hint in _field_hints(type(obj)).items():
            path = f"{prefix}{name}"
            value = getattr(obj, name)
            kind, inner = _field_kind(hint)
            if kind == "kwargs":
                for key, val in value:
                    rows.append((f"{path}.{key}", type(val).__name__, _value_label(val)))
                if not value:
                    rows.append((f"{path}.<key>", _hint_label(inner), "(workload-specific)"))
            elif kind == "entries":
                for i, item in enumerate(value):
                    selector = getattr(item, "name", i)
                    describe(item, f"{path}.{selector}.")
                if not value:
                    selector = "name" if "name" in _field_hints(inner) else "index"
                    rows.append((f"{path}.<{selector}>.…", "table", "(none configured)"))
            elif kind == "section":
                describe(inner() if value is None else value, f"{path}.")
            else:
                rows.append((path, _hint_label(hint), _value_label(value)))

    describe(spec, "")
    return rows


# ----------------------------------------------------------------------
# CLI parsing
# ----------------------------------------------------------------------

def parse_scalar(text: str) -> bool | int | float | str:
    """Parse one CLI value: bool literal, int, float, else string."""
    lowered = text.strip().lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text.strip()


def parse_set_arg(arg: str) -> SweepAxis:
    """Parse one ``--set path=v1,v2,...`` CLI argument into an axis."""
    if "=" not in arg:
        raise ConfigError(f"--set needs path=value[,value...], got {arg!r}")
    path, _, tail = arg.partition("=")
    path = path.strip()
    values = tuple(parse_scalar(part) for part in tail.split(",") if part.strip())
    if not path:
        raise ConfigError(f"--set needs a non-empty path, got {arg!r}")
    if not values:
        raise ConfigError(f"--set {path} needs at least one value, got {arg!r}")
    return SweepAxis(path, values)
