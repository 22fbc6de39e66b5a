import types

import cordsheaf


def test_all_lists_the_api_and_no_module():
    modules = {name for name in dir(cordsheaf)
               if isinstance(getattr(cordsheaf, name), types.ModuleType)}
    assert modules >= {"braid", "cordaug", "correspondence", "field", "linalg",
                       "moduli", "reports", "sheafmodel"}
    assert not [name for name in cordsheaf.__all__
                if isinstance(getattr(cordsheaf, name), types.ModuleType)]
    api = {name for name in dir(cordsheaf) if not name.startswith("_")} - modules
    assert sorted(cordsheaf.__all__) == sorted(api)
    # the submodules stay reachable as attributes
    assert cordsheaf.moduli.enumerate_augs is cordsheaf.enumerate_augs


def test_star_import_binds_no_module():
    namespace: dict = {}
    exec("from cordsheaf import *", namespace)
    bound = {name: value for name, value in namespace.items() if name != "__builtins__"}
    assert not [name for name, value in bound.items() if isinstance(value, types.ModuleType)]
    assert set(bound) == set(cordsheaf.__all__)
