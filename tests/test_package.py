"""The package namespace: each module's ``__all__`` alone decides what is
public, and ``gpdflow`` republishes all of it."""
import importlib

import gpdflow

# dependency order: a module comes after every module it imports
MODULES = ("diagnostics", "algebra", "groupoid", "bundle", "ehresmann",
           "dynamics", "amenability", "fixtures", "serialize")


def test_package_all_is_the_modules_all_joined_in_dependency_order():
    modules = [importlib.import_module(f"gpdflow.{m}") for m in MODULES]
    joined = [name for module in modules for name in module.__all__]
    assert gpdflow.__all__ == joined
    assert len(set(joined)) == len(joined)
    for module in modules:
        for name in module.__all__:
            assert getattr(gpdflow, name) is getattr(module, name), \
                (module.__name__, name)


def test_the_cli_stays_out_of_the_package_namespace():
    assert "cli" not in gpdflow.__all__
    assert not hasattr(gpdflow, "main")
