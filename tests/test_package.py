"""The package surface: every exported name exists, and the symplectic
specializations stand on the density layer alone."""

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
