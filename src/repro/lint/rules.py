"""The simulator-invariant rule set (see package docstring for IDs).

Every rule works purely on the AST — nothing here imports the code
under analysis, so the rules hold even for code that would fail to
import (half-written registrations are exactly what REG001 exists to
catch).  File-scoped rules (DET001/DET002/DET003) inspect one module at
a time; project-scoped rules (SPEC001/REG001/OPLOG001) anchor on the
module that defines their subject (``ScenarioSpec``, ``FTL_CLASSES``,
``NandChip``/``NandDevice``) and consult the cross-file
:class:`~repro.lint.engine.Project` index for inheritance and registry
resolution.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import Finding, Project, SourceFile

# ----------------------------------------------------------------------
# shared AST helpers
# ----------------------------------------------------------------------


def _import_map(tree: ast.AST) -> dict[str, str]:
    """Names bound by imports -> the dotted origin they stand for."""
    bound: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = alias.name if alias.asname else alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return bound


def _resolve(node: ast.AST, imports: dict[str, str]) -> str | None:
    """Dotted origin of a Name/Attribute chain, or None if unbound."""
    if isinstance(node, ast.Name):
        return imports.get(node.id)
    if isinstance(node, ast.Attribute):
        base = _resolve(node.value, imports)
        if base is not None:
            return f"{base}.{node.attr}"
    return None


def _const_str(node: ast.AST) -> str | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


class Rule:
    """One lint rule; subclasses set the metadata and implement check."""

    id: str = ""
    title: str = ""
    rationale: str = ""

    def check(self, source: SourceFile, project: Project) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, source: SourceFile, line: int, message: str) -> Finding:
        return Finding(self.id, source.rel, line, message)


# ----------------------------------------------------------------------
# DET001 — no global-state / unseeded RNG
# ----------------------------------------------------------------------

#: numpy.random attributes that construct explicit, seedable streams —
#: everything else on that module is the legacy global-state API.
_NUMPY_RNG_OK = frozenset(
    {
        "default_rng",
        "Generator",
        "BitGenerator",
        "SeedSequence",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
        "MT19937",
    }
)


class Det001GlobalRng(Rule):
    id = "DET001"
    title = "no global-state or unseeded RNG (counter-based / seeded streams only)"
    rationale = (
        "ReplayRunner(workers=N) determinism and golden byte-identity need "
        "every random draw tied to an explicit seeded stream; module-level "
        "RNG state is shared, order-dependent and invisible to the spec key."
    )

    def check(self, source: SourceFile, project: Project) -> Iterator[Finding]:
        imports = _import_map(source.tree)
        for node in ast.walk(source.tree):
            if isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                if node.module == "random":
                    for alias in node.names:
                        if alias.name != "Random":
                            yield self.finding(
                                source,
                                node.lineno,
                                f"import of global-state RNG random.{alias.name}",
                            )
                elif node.module == "numpy.random":
                    for alias in node.names:
                        if alias.name not in _NUMPY_RNG_OK:
                            yield self.finding(
                                source,
                                node.lineno,
                                "import of legacy global-state RNG "
                                f"numpy.random.{alias.name}",
                            )
            elif isinstance(node, ast.Call):
                dotted = _resolve(node.func, imports)
                if dotted is None:
                    continue
                if dotted == "random.Random" or dotted == "numpy.random.default_rng":
                    if not node.args and not node.keywords:
                        yield self.finding(
                            source,
                            node.lineno,
                            f"unseeded {dotted}() — nondeterministic stream "
                            "(pass an explicit seed)",
                        )
                elif dotted.startswith("random."):
                    yield self.finding(
                        source,
                        node.lineno,
                        f"global-state RNG call {dotted}() — use a seeded "
                        "random.Random / counter-based stream instead",
                    )
                elif dotted.startswith("numpy.random."):
                    tail = dotted[len("numpy.random."):]
                    if tail.split(".")[0] not in _NUMPY_RNG_OK:
                        yield self.finding(
                            source,
                            node.lineno,
                            f"legacy global-state RNG call {dotted}() — use a "
                            "seeded numpy.random.default_rng(seed) Generator",
                        )


# ----------------------------------------------------------------------
# DET002 — no wall-clock reads
# ----------------------------------------------------------------------

_CLOCKS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.clock_gettime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

class Det002WallClock(Rule):
    id = "DET002"
    title = "no wall-clock reads in the simulator"
    rationale = (
        "Simulated time is the engine clock; a wall-clock read anywhere in "
        "the model makes results machine- and load-dependent.  The simulator "
        "is timed from outside the package, by perfbench."
    )

    def check(self, source: SourceFile, project: Project) -> Iterator[Finding]:
        imports = _import_map(source.tree)
        for node in ast.walk(source.tree):
            dotted: str | None = None
            if isinstance(node, ast.Attribute):
                dotted = _resolve(node, imports)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                dotted = imports.get(node.id)
            if dotted in _CLOCKS:
                yield self.finding(
                    source,
                    node.lineno,
                    f"wall-clock read {dotted} — simulator code must use the engine clock",
                )


# ----------------------------------------------------------------------
# DET003 — unordered-iteration hazards
# ----------------------------------------------------------------------


class _SetTypes(ast.NodeVisitor):
    """Collects set-typed attribute/local names per class and function."""

    @staticmethod
    def annotation_is_set(annotation: ast.AST | None) -> bool:
        if annotation is None:
            return False
        if isinstance(annotation, ast.Name):
            return annotation.id in ("set", "frozenset")
        if isinstance(annotation, ast.Subscript):
            return _SetTypes.annotation_is_set(annotation.value)
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            return annotation.value.lstrip().startswith(("set[", "set ", "frozenset"))
        return False


class Det003UnorderedIteration(Rule):
    id = "DET003"
    title = "no ordering-sensitive consumption of unordered sets"
    rationale = (
        "Set iteration order is a CPython implementation detail; feeding it "
        "into lists, yields or single-element picks makes replay order (and "
        "therefore every latency) depend on hash-table history.  Wrap the "
        "iteration in sorted() or restructure."
    )

    _ORDERED_SINKS = frozenset({"append", "extend", "insert"})
    _SET_METHODS = frozenset(
        {"difference", "union", "intersection", "symmetric_difference"}
    )

    def check(self, source: SourceFile, project: Project) -> Iterator[Finding]:
        # class name -> attribute names annotated/assigned as sets
        class_sets: dict[str, set[str]] = {}
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            attrs: set[str] = set()
            for sub in ast.walk(node):
                target: ast.AST | None = None
                if isinstance(sub, ast.AnnAssign) and _SetTypes.annotation_is_set(
                    sub.annotation
                ):
                    target = sub.target
                elif isinstance(sub, ast.Assign) and self._is_set_literalish(sub.value):
                    target = sub.targets[0] if len(sub.targets) == 1 else None
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    attrs.add(target.attr)
            class_sets[node.name] = attrs

        for owner, func in self._functions(source.tree):
            env = self._local_sets(func)
            owner_attrs = class_sets.get(owner or "", set())
            yield from self._scan(source, func, env, owner_attrs)
        # module-level statements outside any function
        module_env = self._local_sets(source.tree, module_level=True)
        yield from self._scan(
            source, source.tree, module_env, set(), skip_functions=True
        )

    # -- helpers -------------------------------------------------------

    @staticmethod
    def _functions(tree: ast.AST) -> Iterator[tuple[str | None, ast.AST]]:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        yield node.name, sub
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                parent_classes = [
                    c
                    for c in ast.walk(tree)
                    if isinstance(c, ast.ClassDef) and node in c.body
                ]
                if not parent_classes:
                    yield None, node

    @staticmethod
    def _is_set_literalish(node: ast.AST) -> bool:
        """Expressions that are unmistakably sets without any inference."""
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset")
        ):
            return True
        return False

    def _local_sets(self, func: ast.AST, module_level: bool = False) -> set[str]:
        names: set[str] = set()
        body = getattr(func, "body", [])
        for node in body if module_level else ast.walk(func):  # type: ignore[union-attr]
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                if _SetTypes.annotation_is_set(node.annotation):
                    names.add(node.target.id)
            elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                if isinstance(node.targets[0], ast.Name) and self._is_set_literalish(
                    node.value
                ):
                    names.add(node.targets[0].id)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = func.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs:
                if _SetTypes.annotation_is_set(arg.annotation):
                    names.add(arg.arg)
        return names

    def _is_set_expr(self, node: ast.AST, env: set[str], attrs: set[str]) -> bool:
        if self._is_set_literalish(node):
            return True
        if isinstance(node, ast.Name):
            return node.id in env
        if isinstance(node, ast.Attribute):
            return (
                isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and node.attr in attrs
            )
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.Sub, ast.BitOr, ast.BitAnd, ast.BitXor)
        ):
            return (
                self._is_set_expr(node.left, env, attrs)
                or self._is_set_expr(node.right, env, attrs)
                or self._is_keys_call(node.left)
                or self._is_keys_call(node.right)
            )
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in self._SET_METHODS
        ):
            return self._is_set_expr(node.func.value, env, attrs)
        return False

    @staticmethod
    def _is_keys_call(node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "keys"
        )

    def _scan(
        self,
        source: SourceFile,
        root: ast.AST,
        env: set[str],
        attrs: set[str],
        skip_functions: bool = False,
    ) -> Iterator[Finding]:
        def walk(node: ast.AST) -> Iterator[ast.AST]:
            for child in ast.iter_child_nodes(node):
                if skip_functions and isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ):
                    continue
                yield child
                yield from walk(child)

        nodes = walk(root) if skip_functions else ast.walk(root)
        for node in nodes:
            if isinstance(node, ast.For) and self._is_set_expr(node.iter, env, attrs):
                if self._body_is_ordering_sensitive(node):
                    yield self.finding(
                        source,
                        node.lineno,
                        "iteration over an unordered set feeds ordering-"
                        "sensitive state — wrap the iterable in sorted()",
                    )
            elif isinstance(node, ast.ListComp):
                if any(
                    self._is_set_expr(gen.iter, env, attrs) for gen in node.generators
                ):
                    yield self.finding(
                        source,
                        node.lineno,
                        "list built by iterating an unordered set — wrap the "
                        "iterable in sorted()",
                    )
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                name = node.func.id
                if (
                    name in ("list", "tuple")
                    and len(node.args) == 1
                    and (
                        self._is_set_expr(node.args[0], env, attrs)
                        or isinstance(node.args[0], ast.GeneratorExp)
                        and any(
                            self._is_set_expr(gen.iter, env, attrs)
                            for gen in node.args[0].generators
                        )
                    )
                ):
                    yield self.finding(
                        source,
                        node.lineno,
                        f"{name}() materializes an unordered set's iteration "
                        "order — wrap it in sorted()",
                    )
                elif (
                    name == "next"
                    and node.args
                    and isinstance(node.args[0], ast.Call)
                    and isinstance(node.args[0].func, ast.Name)
                    and node.args[0].func.id == "iter"
                    and node.args[0].args
                    and self._is_set_expr(node.args[0].args[0], env, attrs)
                ):
                    yield self.finding(
                        source,
                        node.lineno,
                        "next(iter(<set>)) picks a hash-order-dependent "
                        "element — use min()/sorted() or an ordered structure",
                    )

    def _body_is_ordering_sensitive(self, loop: ast.For) -> bool:
        for node in ast.walk(loop):
            if isinstance(node, (ast.Yield, ast.YieldFrom)):
                return True
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in self._ORDERED_SINKS
            ):
                return True
        return False


# ----------------------------------------------------------------------
# SPEC001 — ScenarioSpec closure must be frozen + serializable
# ----------------------------------------------------------------------

_SCALARS = frozenset({"int", "float", "str", "bool", "None", "object"})


class Spec001FrozenSpec(Rule):
    id = "SPEC001"
    title = "every dataclass nested in ScenarioSpec is frozen and serializable"
    rationale = (
        "ScenarioSpec is the memo cache key and the worker-pool pickle "
        "payload; a mutable or unserializable nested section silently breaks "
        "hashing, memoization and TOML/JSON round-trips."
    )

    _ROOT = "ScenarioSpec"

    def check(self, source: SourceFile, project: Project) -> Iterator[Finding]:
        root = project.classes.get(self._ROOT)
        if root is None or root.rel != source.rel or source.in_tests():
            return
        # The rule anchors on the file defining ScenarioSpec and then
        # follows annotations project-wide.
        queue = [self._ROOT]
        visited: set[str] = set()
        while queue:
            name = queue.pop(0)
            if name in visited:
                continue
            visited.add(name)
            info = project.classes.get(name)
            if info is None:
                continue
            defining = project.find(info.rel)
            if defining is None:
                continue
            frozen = self._dataclass_frozen(info.node)
            if frozen is None:
                yield Finding(
                    self.id,
                    info.rel,
                    info.node.lineno,
                    f"{name} is reachable from ScenarioSpec but is not a "
                    "dataclass",
                )
                continue
            if not frozen:
                yield Finding(
                    self.id,
                    info.rel,
                    info.node.lineno,
                    f"{name} is nested in ScenarioSpec but not "
                    "@dataclass(frozen=True)",
                )
            for field_name, annotation in self._fields(info.node):
                bad = self._first_bad(annotation, project)
                if bad is not None:
                    yield Finding(
                        self.id,
                        info.rel,
                        annotation.lineno,
                        f"{name}.{field_name}: annotation "
                        f"{ast.unparse(annotation)!r} is not round-trip "
                        f"serializable (offending part: {bad})",
                    )
                queue.extend(self._referenced_classes(annotation, project))

    @staticmethod
    def _dataclass_frozen(node: ast.ClassDef) -> bool | None:
        """True/False for a dataclass, None if not a dataclass at all."""
        for decorator in node.decorator_list:
            target = decorator.func if isinstance(decorator, ast.Call) else decorator
            name = (
                target.id
                if isinstance(target, ast.Name)
                else target.attr
                if isinstance(target, ast.Attribute)
                else None
            )
            if name != "dataclass":
                continue
            if isinstance(decorator, ast.Call):
                for kw in decorator.keywords:
                    if kw.arg == "frozen":
                        return bool(
                            isinstance(kw.value, ast.Constant) and kw.value.value
                        )
                return False
            return False
        return None

    @staticmethod
    def _fields(node: ast.ClassDef) -> Iterator[tuple[str, ast.expr]]:
        for sub in node.body:
            if isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name):
                annotation = sub.annotation
                if (
                    isinstance(annotation, ast.Subscript)
                    and isinstance(annotation.value, ast.Name)
                    and annotation.value.id == "ClassVar"
                ):
                    continue
                yield sub.target.id, annotation

    def _first_bad(self, annotation: ast.AST, project: Project) -> str | None:
        """The first non-serializable part of the annotation, or None."""
        if isinstance(annotation, ast.Constant):
            if annotation.value is None:
                return None
            if isinstance(annotation.value, str):
                name = annotation.value.strip()
                if name in _SCALARS or name in project.classes:
                    return None
                return repr(annotation.value)
            return repr(annotation.value)
        if isinstance(annotation, ast.Name):
            if annotation.id in _SCALARS or annotation.id in project.classes:
                return None
            return annotation.id
        if isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr):
            return self._first_bad(annotation.left, project) or self._first_bad(
                annotation.right, project
            )
        if isinstance(annotation, ast.Subscript):
            base = annotation.value
            base_name = (
                base.id
                if isinstance(base, ast.Name)
                else base.attr
                if isinstance(base, ast.Attribute)
                else None
            )
            if base_name in ("tuple", "Tuple", "Optional"):
                inner = annotation.slice
                elements = inner.elts if isinstance(inner, ast.Tuple) else [inner]
                for element in elements:
                    if isinstance(element, ast.Constant) and element.value is Ellipsis:
                        continue
                    bad = self._first_bad(element, project)
                    if bad is not None:
                        return bad
                return None
            return base_name or ast.unparse(annotation)
        return ast.unparse(annotation)  # type: ignore[arg-type]

    def _referenced_classes(
        self, annotation: ast.AST, project: Project
    ) -> list[str]:
        names: list[str] = []
        for node in ast.walk(annotation):
            name: str | None = None
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                name = node.value.strip()
            if name and name not in _SCALARS and name in project.classes:
                names.append(name)
        return names


# ----------------------------------------------------------------------
# REG001 — registry completeness
# ----------------------------------------------------------------------


class Reg001Registries(Rule):
    id = "REG001"
    title = "every FTL is in FTL_CLASSES and the CLI --ftl choices match it"
    rationale = (
        "A BaseFTL subclass missing from FTL_CLASSES, or a --ftl choice list "
        "that disagrees with it, is an FTL that sweeps or the CLI cannot reach."
    )

    def check(self, source: SourceFile, project: Project) -> Iterator[Finding]:
        classes_assign = self._module_assign(source.tree, "FTL_CLASSES")
        if classes_assign is None or source.in_tests():
            return
        # anchored on the module that defines FTL_CLASSES
        kinds: dict[str, str] = {}  # kind -> class name
        if isinstance(classes_assign.value, ast.Dict):
            for key, value in zip(classes_assign.value.keys, classes_assign.value.values):
                kind = _const_str(key) if key is not None else None
                if kind is None:
                    continue
                if isinstance(value, ast.Name):
                    kinds[kind] = value.id
                elif isinstance(value, ast.Attribute):
                    kinds[kind] = value.attr

        # every concrete FTL class in the project must be registered
        registered = set(kinds.values())
        for name, info in sorted(project.classes.items()):
            if name == "BaseFTL" or "tests" in info.rel.split("/"):
                continue
            if project.is_subclass(name, "BaseFTL") and name not in registered:
                yield Finding(
                    self.id,
                    info.rel,
                    info.node.lineno,
                    f"{name} subclasses BaseFTL but is not registered in "
                    "FTL_CLASSES",
                )

        # CLI choices for --ftl must match the registry exactly
        for other in project.files:
            if other.in_tests():
                continue
            for node in ast.walk(other.tree):
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "add_argument"
                    and node.args
                    and _const_str(node.args[0]) == "--ftl"
                ):
                    continue
                for kw in node.keywords:
                    if kw.arg != "choices" or not isinstance(
                        kw.value, (ast.List, ast.Tuple)
                    ):
                        continue
                    choices = {
                        kind
                        for kind in (_const_str(el) for el in kw.value.elts)
                        if kind is not None
                    }
                    for kind in sorted(set(kinds) - choices):
                        yield Finding(
                            self.id,
                            other.rel,
                            node.lineno,
                            f"--ftl choices are missing registered FTL "
                            f"{kind!r}",
                        )
                    for kind in sorted(choices - set(kinds)):
                        yield Finding(
                            self.id,
                            other.rel,
                            node.lineno,
                            f"--ftl choices list unregistered FTL {kind!r}",
                        )

    @staticmethod
    def _module_assign(tree: ast.AST, name: str) -> ast.Assign | ast.AnnAssign | None:
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id == name:
                        return node
            elif isinstance(node, ast.AnnAssign):
                if isinstance(node.target, ast.Name) and node.target.id == name:
                    return node
        return None


# ----------------------------------------------------------------------
# OPLOG001 — device time flows only through the op-log entry points
# ----------------------------------------------------------------------

#: the audited command surface: the only methods that may accumulate
#: device time or touch the service-report log.
_OPLOG_ENTRY_POINTS = {
    "NandChip": frozenset(
        {"read", "program", "copyback", "erase", "multi_program", "multi_erase"}
    ),
    "NandDevice": frozenset(
        {
            "read_ppn",
            "program_ppn",
            "copy_page",
            "erase_pbn",
            "program_multi_ppn",
            "erase_multi_pbn",
            "note_retry",
            "note_recovery",
            "begin_oplog",
            "end_oplog",
        }
    ),
}

_TIME_COUNTERS = frozenset({"read_us", "program_us", "erase_us"})


class Oplog001DeviceTime(Rule):
    id = "OPLOG001"
    title = "device time is billed only via the op-log command entry points"
    rationale = (
        "Timed mode rebuilds response times from the op log; a method that "
        "accumulates chip latency without logging a segment makes sequential "
        "and timed accounting silently disagree."
    )

    def check(self, source: SourceFile, project: Project) -> Iterator[Finding]:
        defines_device = False
        for node in ast.walk(source.tree):
            if isinstance(node, ast.ClassDef) and node.name in _OPLOG_ENTRY_POINTS:
                if node.name == "NandDevice":
                    defines_device = True
                allowed = _OPLOG_ENTRY_POINTS[node.name]
                for sub in node.body:
                    if not isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        continue
                    if sub.name in allowed:
                        continue
                    yield from self._scan_method(source, node.name, sub)
        if not defines_device:
            for node in ast.walk(source.tree):
                if isinstance(node, ast.Attribute) and node.attr == "oplog":
                    yield self.finding(
                        source,
                        node.lineno,
                        "direct .oplog access outside NandDevice — use "
                        "begin_oplog()/end_oplog()/note_*() entry points",
                    )

    def _scan_method(
        self, source: SourceFile, class_name: str, method: ast.FunctionDef
    ) -> Iterator[Finding]:
        for node in ast.walk(method):
            if (
                isinstance(node, ast.AugAssign)
                and isinstance(node.op, ast.Add)
                and isinstance(node.target, ast.Attribute)
                and node.target.attr in _TIME_COUNTERS
            ):
                yield self.finding(
                    source,
                    node.lineno,
                    f"{class_name}.{method.name} accumulates device time "
                    "outside the audited op-log entry points",
                )
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "record_erase"
            ):
                yield self.finding(
                    source,
                    node.lineno,
                    f"{class_name}.{method.name} records erase time outside "
                    "the audited op-log entry points",
                )
            elif isinstance(node, ast.Attribute) and node.attr == "oplog":
                if method.name == "__init__" and isinstance(node.ctx, ast.Store):
                    continue  # declaring the slot is not billing against it
                yield self.finding(
                    source,
                    node.lineno,
                    f"{class_name}.{method.name} touches the op log outside "
                    "the audited entry points",
                )


#: the shipped rule set, in report order.
RULES: tuple[Rule, ...] = (
    Det001GlobalRng(),
    Det002WallClock(),
    Det003UnorderedIteration(),
    Spec001FrozenSpec(),
    Reg001Registries(),
    Oplog001DeviceTime(),
)
