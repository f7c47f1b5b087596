"""The package surface: every exported name exists, the symplectic
specializations stand on the density layer alone, and the command line holds
no scenario logic."""

import ast
import importlib
import pathlib

import pytest


@pytest.mark.parametrize("package", ["density", "smooth", "symplectic", "finite"])
def test_star_import_finds_every_exported_name(package):
    namespace = {}
    # raises AttributeError for an __all__ entry the package no longer has
    exec(f"from groupoid_measures.{package} import *", namespace)
    module = importlib.import_module(f"groupoid_measures.{package}")
    assert set(module.__all__) <= namespace.keys()


def test_symplectic_imports_nothing_from_smooth():
    package = pathlib.Path(importlib.import_module("groupoid_measures.symplectic").__file__)
    for path in package.parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                assert "smooth" not in (node.module or "").split("."), path.name


def test_cli_imports_neither_numpy_nor_the_scenario_context():
    # reading and running a scenario, and numpy's error state, are the
    # scenario module's
    cli = pathlib.Path(importlib.import_module("groupoid_measures.cli").__file__)
    imported = set()
    for node in ast.walk(ast.parse(cli.read_text())):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(alias.name for alias in node.names)
    assert imported and not {"numpy", "ScenarioContext"} & imported
    assert not any(name.startswith("numpy.") for name in imported)
