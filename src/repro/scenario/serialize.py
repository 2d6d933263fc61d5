"""Lossless (de)serialization of :class:`ScenarioSpec`: dicts, JSON, TOML.

The contract the property tests pin:

* ``spec_from_dict(spec_to_dict(s)) == s`` for every valid spec
  (identity through plain dicts, and therefore through JSON and TOML,
  whose readers produce exactly these dicts);
* unknown or misspelled keys raise :class:`~repro.errors.ConfigError`
  naming the offending **dotted path** (``reliability.base_rberr``),
  never a bare ``TypeError`` from a dataclass constructor — and
  out-of-range values (``arrival.scale = 0``) die with the field's own
  :class:`ConfigError` from spec validation;
* values are coerced only where the file format is lossy (TOML/JSON
  readers may hand an ``int`` where a float field is meant — ``2`` for
  ``speed_ratio``); everything else is type-checked strictly.

A *scenario file* is a spec plus optional experiment metadata: a
``name``, a ``description`` and a list of ``sweep`` axes (dotted path +
values).  :func:`load_scenario_file` returns the
:class:`ScenarioFile` bundle; a file without sweep axes is a single
run, one with axes expands to the cross-product via
:func:`repro.scenario.sweep.sweep`.
"""

from __future__ import annotations

import dataclasses
import json
import types
import typing
from dataclasses import dataclass, field

from repro.core.config import PPBConfig
from repro.errors import ConfigError
from repro.ftl.transmap import MappingConfig
from repro.nand.spec import NandSpec
from repro.reliability.faults import FaultSpec
from repro.reliability.manager import ReliabilityConfig
from repro.scenario.spec import PreconditionPhase, ScenarioSpec, TenantSpec
from repro.scenario.sweep import SweepAxis
from repro.sim.arrival import ArrivalSpec

#: keys a scenario *file* may carry beyond the spec fields.
FILE_ONLY_KEYS = ("name", "description", "sweep")

#: nested sections and their dataclass types.
_SECTIONS = {
    "device": NandSpec,
    "ppb": PPBConfig,
    "reliability": ReliabilityConfig,
    "mapping": MappingConfig,
    "faults": FaultSpec,
    "arrival": ArrivalSpec,
}

#: repeated sections (lists of sub-specs) and their element types.
_LIST_SECTIONS = {
    "tenants": TenantSpec,
    "precondition": PreconditionPhase,
}


# ----------------------------------------------------------------------
# dict round trip
# ----------------------------------------------------------------------

def spec_to_dict(spec: ScenarioSpec) -> dict:
    """A plain, JSON/TOML-ready dict: nested configs become tables.

    Fields that are ``None`` (an absent optional section or knob) are
    omitted — TOML has no null, and ``spec_from_dict`` restores them.
    """
    out: dict[str, object] = {}
    for f in dataclasses.fields(spec):
        value = getattr(spec, f.name)
        if value is None:
            continue
        if f.name == "workload_kwargs":
            if value:
                out[f.name] = dict(value)
            continue
        if f.name in _LIST_SECTIONS:
            if value:
                out[f.name] = [_subspec_to_dict(item) for item in value]
            continue
        if dataclasses.is_dataclass(value):
            out[f.name] = dataclasses.asdict(value)
            continue
        out[f.name] = value
    return out


def _subspec_to_dict(item: TenantSpec | PreconditionPhase) -> dict:
    """Dict form of a tenant / preconditioning phase entry."""
    out: dict[str, object] = {}
    for f in dataclasses.fields(item):
        value = getattr(item, f.name)
        if f.name == "workload_kwargs":
            if value:
                out[f.name] = dict(value)
            continue
        out[f.name] = value
    return out


def spec_from_dict(data: typing.Mapping) -> ScenarioSpec:
    """Rebuild a spec from :func:`spec_to_dict` output (or a hand-written
    config); raises :class:`ConfigError` naming the dotted path of any
    unknown key or ill-typed value."""
    if not isinstance(data, typing.Mapping):
        raise ConfigError(f"scenario must be a mapping, got {type(data).__name__}")
    hints = typing.get_type_hints(ScenarioSpec)
    known = {f.name for f in dataclasses.fields(ScenarioSpec)}
    kwargs: dict[str, object] = {}
    for key, value in data.items():
        if key not in known:
            raise ConfigError(
                f"unknown scenario field {key!r}; known fields: {sorted(known)}"
            )
        if key in _SECTIONS:
            kwargs[key] = _dataclass_from_dict(_SECTIONS[key], value, path=key)
        elif key in _LIST_SECTIONS:
            kwargs[key] = _subspecs_from(_LIST_SECTIONS[key], value, path=key)
        elif key == "workload_kwargs":
            kwargs[key] = _workload_kwargs_from(value)
        else:
            kwargs[key] = _coerce(value, hints[key], path=key)
    return ScenarioSpec(**kwargs)  # type: ignore[arg-type]


def _subspecs_from(cls: type, value: object, path: str) -> tuple:
    """Rebuild a ``tenants`` / ``precondition`` list of sub-specs."""
    if not isinstance(value, (list, tuple)):
        raise ConfigError(
            f"{path} must be a list of tables, got {type(value).__name__}"
        )
    out = []
    for i, entry in enumerate(value):
        where = f"{path}[{i}]"
        if not isinstance(entry, typing.Mapping):
            raise ConfigError(f"{where} must be a table/mapping, got {entry!r}")
        hints = typing.get_type_hints(cls)
        known = {f.name for f in dataclasses.fields(cls)}
        kwargs: dict[str, object] = {}
        for key, val in entry.items():
            if key not in known:
                raise ConfigError(
                    f"unknown field {where}.{key}; known fields: {sorted(known)}"
                )
            if key == "workload_kwargs":
                kwargs[key] = _workload_kwargs_from(val, path=f"{where}.{key}")
            else:
                kwargs[key] = _coerce(val, hints[key], path=f"{where}.{key}")
        out.append(cls(**kwargs))
    return tuple(out)


def _workload_kwargs_from(
    value: object, path: str = "workload_kwargs"
) -> tuple[tuple[str, int | float | str | bool], ...]:
    if isinstance(value, typing.Mapping):
        items = list(value.items())
    elif isinstance(value, (list, tuple)):
        items = []
        for entry in value:
            if not isinstance(entry, (list, tuple)) or len(entry) != 2:
                raise ConfigError(
                    f"{path} entries must be (name, value) pairs, got {entry!r}"
                )
            items.append((entry[0], entry[1]))
    else:
        raise ConfigError(
            f"{path} must be a mapping or list of pairs, got {type(value).__name__}"
        )
    out = []
    for name, val in items:
        if not isinstance(name, str):
            raise ConfigError(f"{path} keys must be strings, got {name!r}")
        if not isinstance(val, (int, float, str, bool)):
            raise ConfigError(
                f"{path}.{name} must be int/float/str/bool, got {val!r}"
            )
        out.append((name, val))
    return tuple(out)


def _dataclass_from_dict(cls: type, data: object, path: str) -> object:
    """Generic strict dataclass rebuild with dotted-path errors."""
    if not isinstance(data, typing.Mapping):
        raise ConfigError(f"{path} must be a table/mapping, got {type(data).__name__}")
    hints = typing.get_type_hints(cls)
    known = {f.name for f in dataclasses.fields(cls)}
    kwargs: dict[str, object] = {}
    for key, value in data.items():
        if key not in known:
            raise ConfigError(
                f"unknown field {path}.{key}; known fields of {path}: {sorted(known)}"
            )
        kwargs[key] = _coerce(value, hints[key], path=f"{path}.{key}")
    return cls(**kwargs)


def _coerce(value: object, hint: object, path: str) -> object:
    """Check/coerce one scalar against a resolved type hint.

    The only *coercion* is int -> float (TOML/JSON readers legitimately
    produce ``2`` for a float field); everything else must match.
    """
    origin = typing.get_origin(hint)
    if origin in (typing.Union, types.UnionType):  # Optional[...] fields
        members = [a for a in typing.get_args(hint) if a is not type(None)]
        if value is None:
            return None
        return _coerce(value, members[0], path)
    if hint is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{path} must be a number, got {value!r}")
        return float(value)
    if hint is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path} must be an integer, got {value!r}")
        return value
    if hint is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"{path} must be true/false, got {value!r}")
        return value
    if hint is str:
        if not isinstance(value, str):
            raise ConfigError(f"{path} must be a string, got {value!r}")
        return value
    raise ConfigError(f"{path}: unsupported field type {hint!r}")  # pragma: no cover


# ----------------------------------------------------------------------
# JSON
# ----------------------------------------------------------------------

def spec_to_json(spec: ScenarioSpec, indent: int = 2) -> str:
    """JSON text of :func:`spec_to_dict`."""
    return json.dumps(spec_to_dict(spec), indent=indent, sort_keys=False) + "\n"


def spec_from_json(text: str) -> ScenarioSpec:
    """Parse :func:`spec_to_json` output (or any JSON scenario)."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid scenario JSON: {exc}") from None
    return spec_from_dict(data)


# ----------------------------------------------------------------------
# TOML
# ----------------------------------------------------------------------

def _toml_scalar(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        # repr() of a finite float is valid TOML (always has a '.' or an
        # exponent); inf/nan spell the same in TOML as in Python.
        return repr(value)
    if isinstance(value, str):
        # JSON string escaping is a valid TOML basic string.
        return json.dumps(value)
    raise ConfigError(f"cannot serialize {value!r} to TOML")


def _toml_table_lines(table: dict) -> list[str]:
    """Key lines of one table; nested dicts become inline tables."""
    lines = []
    for key, value in table.items():
        if isinstance(value, dict):  # e.g. a tenant's workload_kwargs
            inner = ", ".join(f"{k} = {_toml_scalar(v)}" for k, v in value.items())
            lines.append(f"{key} = {{ {inner} }}")
        else:
            lines.append(f"{key} = {_toml_scalar(value)}")
    return lines


def spec_to_toml(spec: ScenarioSpec) -> str:
    """TOML text of :func:`spec_to_dict`: scalars first, then one
    ``[section]`` table per nested config and one ``[[section]]``
    array-of-tables entry per tenant / preconditioning phase."""
    data = spec_to_dict(spec)
    lines: list[str] = []
    tables: list[tuple[str, dict]] = []
    arrays: list[tuple[str, list]] = []
    for key, value in data.items():
        if isinstance(value, dict):
            tables.append((key, value))
        elif isinstance(value, list):
            arrays.append((key, value))
        else:
            lines.append(f"{key} = {_toml_scalar(value)}")
    for name, table in tables:
        lines.append("")
        lines.append(f"[{name}]")
        lines.extend(_toml_table_lines(table))
    for name, entries in arrays:
        for entry in entries:
            lines.append("")
            lines.append(f"[[{name}]]")
            lines.extend(_toml_table_lines(entry))
    return "\n".join(lines) + "\n"


def spec_from_toml(text: str) -> ScenarioSpec:
    """Parse :func:`spec_to_toml` output (or any TOML scenario)."""
    import tomllib

    try:
        data = tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise ConfigError(f"invalid scenario TOML: {exc}") from None
    return spec_from_dict(data)


# ----------------------------------------------------------------------
# Scenario files (spec + metadata + sweep axes)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ScenarioFile:
    """A parsed scenario file: base spec, optional name and sweep axes."""

    base: ScenarioSpec
    name: str = ""
    description: str = ""
    axes: tuple[SweepAxis, ...] = ()

    @property
    def is_sweep(self) -> bool:
        """Whether the file expands to more than one scenario."""
        return bool(self.axes)

    def scenarios(self) -> list[ScenarioSpec]:
        """The cross-product this file describes (one spec if no axes)."""
        from repro.scenario.sweep import sweep

        return sweep(self.base, self.axes)


@dataclass(frozen=True)
class _RawFile:
    spec_data: dict = field(default_factory=dict)
    name: str = ""
    description: str = ""
    axes_data: tuple = ()


def _split_file_keys(data: dict, source: str) -> _RawFile:
    spec_data = dict(data)
    extras = {key: spec_data.pop(key) for key in FILE_ONLY_KEYS if key in spec_data}
    name = extras.get("name", "")
    description = extras.get("description", "")
    axes_data = extras.get("sweep", [])
    for key, value in (("name", name), ("description", description)):
        if not isinstance(value, str):
            raise ConfigError(f"{source}: {key} must be a string, got {value!r}")
    if not isinstance(axes_data, list):
        raise ConfigError(f"{source}: sweep must be a list of axes")
    return _RawFile(spec_data, name, description, tuple(axes_data))


def _axes_from(axes_data: tuple, base: ScenarioSpec, source: str) -> tuple[SweepAxis, ...]:
    from repro.scenario.sweep import get_path

    axes = []
    for i, entry in enumerate(axes_data):
        where = f"{source}: sweep[{i}]"
        if not isinstance(entry, typing.Mapping):
            raise ConfigError(f"{where} must be a table with 'path' and 'values'")
        unknown = set(entry) - {"path", "values"}
        if unknown:
            raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
        path = entry.get("path")
        values = entry.get("values")
        if not isinstance(path, str) or not path:
            raise ConfigError(f"{where}: path must be a non-empty string")
        if not isinstance(values, list) or not values:
            raise ConfigError(f"{where}: values must be a non-empty list")
        axis = SweepAxis(path, tuple(values))
        get_path(base, path)  # fail fast on a misspelled dotted path
        axes.append(axis)
    return tuple(axes)


def parse_scenario_file(text: str, *, fmt: str, source: str = "<scenario>") -> ScenarioFile:
    """Parse scenario-file text (``fmt`` is ``"toml"`` or ``"json"``)."""
    if fmt == "toml":
        import tomllib

        try:
            data = tomllib.loads(text)
        except tomllib.TOMLDecodeError as exc:
            raise ConfigError(f"{source}: invalid TOML: {exc}") from None
    elif fmt == "json":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{source}: invalid JSON: {exc}") from None
    else:
        raise ConfigError(f"unknown scenario file format {fmt!r} (toml or json)")
    if not isinstance(data, dict):
        raise ConfigError(f"{source}: scenario file must be a table/object at top level")
    raw = _split_file_keys(data, source)
    base = spec_from_dict(raw.spec_data)
    axes = _axes_from(raw.axes_data, base, source)
    return ScenarioFile(base=base, name=raw.name, description=raw.description, axes=axes)


def _format_of(path: str) -> str:
    lowered = str(path).lower()
    if lowered.endswith(".toml"):
        return "toml"
    if lowered.endswith(".json"):
        return "json"
    raise ConfigError(f"cannot tell scenario format from suffix of {path!r} (.toml or .json)")


def load_scenario_file(path: str) -> ScenarioFile:
    """Read and parse a ``.toml`` / ``.json`` scenario file."""
    fmt = _format_of(path)
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read scenario file {path}: {exc}") from None
    return parse_scenario_file(text, fmt=fmt, source=str(path))


def save_scenario_file(spec: ScenarioSpec, path: str) -> None:
    """Write a spec to a ``.toml`` / ``.json`` file (lossless)."""
    fmt = _format_of(path)
    text = spec_to_toml(spec) if fmt == "toml" else spec_to_json(spec)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
