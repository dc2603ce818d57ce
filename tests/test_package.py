"""The package namespace: every name it exports is public in its module."""
import ast
import importlib
from pathlib import Path

import gpdflow


def test_every_package_name_is_in_its_module_all():
    tree = ast.parse(Path(gpdflow.__file__).read_text())
    source = {alias.name: node.module for node in tree.body
              if isinstance(node, ast.ImportFrom) for alias in node.names}
    for name in gpdflow.__all__:
        module = importlib.import_module(f"gpdflow.{source[name]}")
        assert name in module.__all__, (name, module.__name__)
