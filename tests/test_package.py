import importlib
import types

import glome

SUBMODULES = ("tape", "jetcalc", "chart", "symmetries", "geodesics", "reduction", "suites", "cli")


def test_every_public_name_is_a_module():
    for name in SUBMODULES:
        importlib.import_module(f"glome.{name}")
    public = {name: value for name, value in vars(glome).items() if not name.startswith("_")}
    assert sorted(public) == sorted(SUBMODULES)
    assert all(isinstance(value, types.ModuleType) for value in public.values())
    assert all(f":mod:`glome.{name}`" in glome.__doc__ for name in SUBMODULES)
