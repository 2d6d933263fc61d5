"""Every ``repro`` import the repository's users write must resolve.

Parses (never runs) the example scripts, the paper-figure benchmarks,
the perfbench harness and the ```` ```python ```` fences of
``README.md``.  For each ``import repro...`` it imports the module; for
each ``from repro... import name`` it imports the module and checks the
name is there, as an attribute or as a submodule (the two ways Python
itself resolves it).  The package ``__init__`` files re-export almost
nothing, so a name dropped from one breaks only the callers that
imported through it; this finds them without running them.
"""

import ast
import glob
import importlib
import os
import re

ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), ".."))
SCRIPTS = ("examples/*.py", "benchmarks/*.py", "perfbench/*.py")

_FENCE = re.compile(r"^```python\n(.*?)^```", re.MULTILINE | re.DOTALL)


def _sources() -> list[tuple[str, int, str]]:
    """``(file, lines before the source, python source)`` for every file
    and README fence scanned."""
    found = []
    for pattern in SCRIPTS:
        for path in sorted(glob.glob(os.path.join(ROOT, pattern))):
            with open(path, encoding="utf-8") as handle:
                found.append((os.path.relpath(path, ROOT), 0, handle.read()))
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as handle:
        readme = handle.read()
    for match in _FENCE.finditer(readme):
        found.append(("README.md", readme.count("\n", 0, match.start(1)), match.group(1)))
    return found


def _repro_imports(source: str) -> list[tuple[int, str, str | None]]:
    """``(line, module, name or None)`` for each absolute ``repro`` import."""
    imports = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module.split(".")[0] == "repro":
                imports += [(node.lineno, node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            imports += [
                (node.lineno, alias.name, None)
                for alias in node.names
                if alias.name.split(".")[0] == "repro"
            ]
    return imports


def _resolves(module_name: str, name: str | None) -> bool:
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return False
    if name is None or name == "*" or hasattr(module, name):
        return True
    try:
        importlib.import_module(f"{module_name}.{name}")
    except ImportError:
        return False
    return True


def test_every_user_import_resolves():
    # One test over all sources, so adding an example never renames tests.
    checked = []
    failures = []
    for path, offset, source in _sources():
        for line, module_name, name in _repro_imports(source):
            checked.append((path, module_name, name))
            if not _resolves(module_name, name):
                target = module_name if name is None else f"{name} from {module_name}"
                failures.append(f"{path}:{offset + line}: cannot import {target}")
    # the scan must reach the imports it exists for: perfbench builds its
    # DFTL workload through the transmap package, the quickstart through
    # the top-level package
    assert ("perfbench/workloads.py", "repro.ftl.transmap", "MappingConfig") in checked
    assert ("examples/quickstart.py", "repro", "quick_comparison") in checked
    assert any(path == "README.md" for path, _, _ in checked)
    assert not failures, "\n".join(failures)
