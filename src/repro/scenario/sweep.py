"""Generic sweeps: dotted field paths -> cross-products of scenarios.

A :class:`SweepAxis` names one knob by **dotted path** — any field of
:class:`~repro.scenario.spec.ScenarioSpec` or of its nested configs —
and the values to try::

    SweepAxis("device.speed_ratio", (2.0, 4.0))
    SweepAxis("device.num_channels", (1, 2, 4))
    SweepAxis("reliability.base_rber", (1e-4, 2e-4))
    SweepAxis("ppb.reliability_weight", (0.0, 2.0, 8.0))
    SweepAxis("workload_kwargs.zipf_theta", (0.5, 0.95))
    SweepAxis("reread_age_s", (0.0, 2.6e6))
    SweepAxis("arrival.scale", (1.0, 4.0, 16.0))
    SweepAxis("arrival.queue_depth", (1, 4, 16, 64))

:func:`sweep` expands a base spec and axes into the cross-product (first
axis outermost, values in the order given), each element a frozen
:class:`ScenarioSpec` ready for the memoized
:class:`~repro.scenario.memo.ReplayRunner`.  Setting a path under ``ppb``
or ``reliability`` on a spec where that section is ``None``
instantiates the section's defaults first, so
``--set reliability.base_rber=2e-4`` alone turns the stack on.
"""

from __future__ import annotations

import dataclasses
import itertools
import types
import typing
from dataclasses import dataclass

from repro.core.config import PPBConfig
from repro.errors import ConfigError
from repro.ftl.transmap import MappingConfig
from repro.reliability.faults import FaultSpec
from repro.reliability.manager import ReliabilityConfig
from repro.scenario.spec import ScenarioSpec
from repro.sim.arrival import ArrivalSpec

#: optional sections auto-created (with defaults) when a sweep sets a
#: path beneath them.
_AUTO_SECTIONS = {
    "ppb": PPBConfig,
    "reliability": ReliabilityConfig,
    "mapping": MappingConfig,
    "faults": FaultSpec,
    "arrival": ArrivalSpec,
}

#: repeated sections addressed by element: ``tenants.0.num_requests`` by
#: index, or ``tenants.db.num_requests`` by tenant name.
_LIST_FIELDS = ("tenants", "precondition")


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

def _field_names(obj: object) -> set[str]:
    return {f.name for f in dataclasses.fields(obj)}


def _element_index(items: tuple, selector: str, dotted: str) -> int:
    """Resolve a ``tenants``/``precondition`` element selector: a
    0-based index, or (tenants) the tenant's name."""
    if not items:
        raise ConfigError(f"{dotted!r}: the spec has no entries to select from")
    try:
        index = int(selector)
    except ValueError:
        for i, item in enumerate(items):
            if getattr(item, "name", None) == selector:
                return i
        names = [getattr(item, "name", None) for item in items]
        known = [n for n in names if n is not None]
        raise ConfigError(
            f"{dotted}.{selector}: no entry named {selector!r}; "
            f"use an index 0..{len(items) - 1}"
            + (f" or a name from {sorted(known)}" if known else "")
        ) from None
    if not 0 <= index < len(items):
        raise ConfigError(
            f"{dotted}.{selector}: index out of range (have {len(items)} entries)"
        )
    return index


def _has_kwargs_field(obj: object) -> bool:
    """Whether ``obj`` carries a ``workload_kwargs`` tuple (the spec
    itself, a tenant, or a preconditioning phase)."""
    return dataclasses.is_dataclass(obj) and not isinstance(obj, type) and (
        "workload_kwargs" in _field_names(obj)
    )


def get_path(spec: ScenarioSpec, path: str) -> object:
    """Read the value at a dotted path; ConfigError names the bad segment.

    A path under an absent optional section (``ppb.vb_split`` while
    ``ppb`` is None) reads the section's *default* value — the value the
    engine would effectively use once the section is instantiated.
    """
    obj: object = spec
    walked: list[str] = []
    parts = path.split(".")
    for i, part in enumerate(parts):
        walked.append(part)
        if obj is None and walked[:-1] and walked[-2] in _AUTO_SECTIONS:
            obj = _AUTO_SECTIONS[walked[-2]]()
        if isinstance(obj, tuple) and walked[:-1] and walked[-2] in _LIST_FIELDS:
            # This segment selects one tenant / preconditioning phase.
            obj = obj[_element_index(obj, part, ".".join(walked[:-1]))]
            continue
        if part == "workload_kwargs" and _has_kwargs_field(obj) and i + 1 < len(parts):
            kwargs = dict(obj.workload_kwargs)
            key = parts[i + 1]
            if len(parts) != i + 2:
                raise ConfigError(
                    f"workload_kwargs paths have exactly one key segment, got {path!r}"
                )
            return kwargs.get(key)
        if not dataclasses.is_dataclass(obj):
            raise ConfigError(
                f"cannot descend into {'.'.join(walked[:-1])!r}: not a config section"
            )
        if part not in _field_names(obj):
            raise ConfigError(
                f"unknown scenario field {'.'.join(walked)!r}; "
                f"known fields here: {sorted(_field_names(obj))}"
            )
        obj = getattr(obj, part)
    return obj


def set_path(spec: ScenarioSpec, path: str, value: object) -> ScenarioSpec:
    """A copy of ``spec`` with the field at ``path`` replaced.

    Values are coerced against the field's declared type (so ``"2"``
    from a CLI ``--set`` or an int from TOML lands as the float the
    field wants); the rebuilt spec re-runs every validation, so an
    out-of-range value raises the usual :class:`ConfigError`.
    """
    parts = path.split(".")
    return _set_in(spec, parts, value, walked=[])


def _set_in(obj: object, parts: list[str], value: object, walked: list[str]) -> object:
    from repro.scenario.serialize import _coerce

    head, rest = parts[0], parts[1:]
    dotted = ".".join(walked + [head])
    if head == "workload_kwargs" and _has_kwargs_field(obj) and rest:
        if len(rest) != 1:
            raise ConfigError(
                f"workload_kwargs paths have exactly one key segment, got {dotted + '.' + '.'.join(rest)!r}"
            )
        if not isinstance(value, (int, float, str, bool)):
            raise ConfigError(
                f"{dotted}.{rest[0]} must be int/float/str/bool, got {value!r}"
            )
        kwargs = dict(obj.workload_kwargs)
        kwargs[rest[0]] = value
        return dataclasses.replace(obj, workload_kwargs=tuple(kwargs.items()))
    if head in _LIST_FIELDS and isinstance(obj, ScenarioSpec) and rest:
        entries = getattr(obj, head)
        index = _element_index(entries, rest[0], dotted)
        if len(rest) == 1:
            raise ConfigError(
                f"{dotted}.{rest[0]!r} is a config section, not a sweepable "
                f"scalar; sweep one of its fields (e.g. {dotted}.{rest[0]}.<field>)"
            )
        element = _set_in(entries[index], rest[1:], value, walked + [head, rest[0]])
        rebuilt = entries[:index] + (element,) + entries[index + 1:]
        return dataclasses.replace(obj, **{head: rebuilt})
    if not dataclasses.is_dataclass(obj):
        raise ConfigError(
            f"cannot descend into {'.'.join(walked)!r}: not a config section"
        )
    if head not in _field_names(obj):
        raise ConfigError(
            f"unknown scenario field {dotted!r}; "
            f"known fields here: {sorted(_field_names(obj))}"
        )
    if not rest:
        hint = typing.get_type_hints(type(obj))[head]
        if _is_section_hint(hint):
            raise ConfigError(
                f"{dotted!r} is a config section, not a sweepable scalar; "
                f"sweep one of its fields (e.g. {dotted}.<field>)"
            )
        return dataclasses.replace(obj, **{head: _coerce(value, hint, path=dotted)})
    child = getattr(obj, head)
    if child is None and head in _AUTO_SECTIONS:
        child = _AUTO_SECTIONS[head]()
    new_child = _set_in(child, rest, value, walked + [head])
    return dataclasses.replace(obj, **{head: new_child})


def _is_section_hint(hint: object) -> bool:
    origin = typing.get_origin(hint)
    if origin in (typing.Union, types.UnionType):
        return any(_is_section_hint(a) for a in typing.get_args(hint))
    if origin is tuple:  # tenants / precondition tuples
        return any(dataclasses.is_dataclass(a) for a in typing.get_args(hint))
    return dataclasses.is_dataclass(hint)


def _dict_list_entry(node: list, selector: str, dotted: str) -> dict:
    """Element of a ``tenants``/``precondition`` list in dict form."""
    try:
        index = int(selector)
    except ValueError:
        for entry in node:
            if isinstance(entry, dict) and entry.get("name") == selector:
                return entry
        raise ConfigError(f"{dotted}: no entry named {selector!r}") from None
    if not 0 <= index < len(node):
        raise ConfigError(f"{dotted}: index out of range (have {len(node)} entries)")
    return node[index]


def _set_in_dict(data: dict, path: str, value: object) -> None:
    """Set a dotted path in a :func:`spec_to_dict`-shaped plain dict."""
    parts = path.split(".")
    node = data
    for i, part in enumerate(parts[:-1]):
        dotted = ".".join(parts[: i + 1])
        if isinstance(node, list):
            node = _dict_list_entry(node, part, dotted)
        else:
            node = node.setdefault(part, {})
        if not isinstance(node, (dict, list)):
            raise ConfigError(
                f"cannot descend into {dotted!r}: not a config section"
            )
    if isinstance(node, list):
        raise ConfigError(
            f"{path!r} selects a whole entry, not a sweepable scalar"
        )
    node[parts[-1]] = value


def set_paths(
    spec: ScenarioSpec, items: typing.Iterable[tuple[str, object]]
) -> ScenarioSpec:
    """A copy of ``spec`` with several dotted paths replaced **at once**.

    Unlike chaining :func:`set_path`, the edits are folded into the
    spec's dict form and validated only once, on the final spec — so a
    combination that is only valid *together* (``reread_age_s`` plus
    the ``reliability`` section that permits it) works regardless of
    the order the edits are listed in.
    """
    from repro.scenario.serialize import spec_from_dict, spec_to_dict

    items = list(items)
    for path, _ in items:
        get_path(spec, path)  # path existence, with the dotted-name error
    data = spec_to_dict(spec)
    for path, value in items:
        _set_in_dict(data, path, value)
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
        hints = typing.get_type_hints(type(obj))
        for f in dataclasses.fields(obj):
            path = f"{prefix}{f.name}"
            value = getattr(obj, f.name)
            hint = hints[f.name]
            if f.name == "workload_kwargs":
                for key, val in value:
                    rows.append((f"{path}.{key}", type(val).__name__,
                                 _value_label(val)))
                if not value:
                    rows.append((f"{path}.<key>", "int | float | str | bool",
                                 "(workload-specific)"))
                continue
            if f.name in _LIST_FIELDS:
                for i, item in enumerate(value):
                    name = getattr(item, "name", None)
                    selector = name if name is not None else str(i)
                    describe(item, f"{path}.{selector}.")
                if not value:
                    rows.append((f"{path}.<{'name' if f.name == 'tenants' else 'index'}>.…",
                                 "table", "(none configured)"))
                continue
            if value is None and f.name in _AUTO_SECTIONS:
                value = _AUTO_SECTIONS[f.name]()
            if dataclasses.is_dataclass(value):
                describe(value, f"{path}.")
                continue
            if _is_section_hint(hint):
                continue  # absent non-auto section (trace_path etc. are scalars)
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
