"""The package namespace: each library module's ``__all__`` is its only list of public names."""
import dataclasses
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


def test_every_public_dataclass_is_frozen():
    # every value type, and each dataclass it is built on, refuses rebinding
    classes = {cls for value in vars(qugame).values() if isinstance(value, type)
               for cls in value.__mro__ if dataclasses.is_dataclass(cls)}
    assert len(classes) >= 25   # 25 today, the operators' private base class included
    for cls in classes:
        assert cls.__dataclass_params__.frozen, cls.__name__
