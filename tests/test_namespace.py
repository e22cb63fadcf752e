"""The package namespace: each library module's ``__all__`` is its only list of public names."""
import importlib
import types

import qugame

LIBRARY = ("config", "linalg", "classical", "quantum", "geometry", "builders", "gamedoc")


def test_every_declared_name_resolves_on_the_package():
    for name in LIBRARY:
        module = importlib.import_module(f"qugame.{name}")
        for public in module.__all__:
            assert getattr(qugame, public) is getattr(module, public), f"{name}.{public}"


def test_every_public_package_name_is_declared_once():
    declared = [p for name in LIBRARY for p in importlib.import_module(f"qugame.{name}").__all__]
    assert len(declared) == len(set(declared)), "two __all__ lists share a name"
    for public, value in vars(qugame).items():
        if public.startswith("_"):
            continue
        submodule = isinstance(value, types.ModuleType) and value.__name__ == f"qugame.{public}"
        assert public in declared or submodule, public
