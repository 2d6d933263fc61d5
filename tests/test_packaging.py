"""The package version has one source: ``repro.__version__``."""

import ast
import os
import tomllib

import repro

ROOT = os.path.join(os.path.dirname(__file__), "..")


def test_pyproject_reads_the_version_from_the_package():
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as handle:
        config = tomllib.load(handle)
    assert "version" not in config["project"], "pyproject must not pin a version"
    assert "version" in config["project"]["dynamic"]
    assert config["tool"]["setuptools"]["dynamic"]["version"] == {
        "attr": "repro.__version__"
    }


def test_version_is_a_literal_setuptools_can_read_without_importing():
    with open(repro.__file__, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    literals = [
        node.value.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__version__" for t in node.targets)
        and isinstance(node.value, ast.Constant)
    ]
    assert literals == [repro.__version__]


def test_requires_python_covers_tomllib():
    # Scenario files are TOML, read with the standard library's tomllib
    # (3.11+); the package must not claim to work where it cannot.
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as handle:
        config = tomllib.load(handle)
    assert config["project"]["requires-python"] == ">=3.11"
    assert config["tool"]["mypy"]["python_version"] == "3.11"
