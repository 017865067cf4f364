"""The public surface: `hypersym.__all__` names each export once, every
name resolves, the star import runs, and retired names stay gone."""

import hypersym

RETIRED = ("mat_vec_mod", "is_l_symmetric")


def test_public_names_resolve_once_and_retired_names_are_gone():
    names = hypersym.__all__
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(hypersym, name)] == []
    # a stale entry in __all__ raises AttributeError here
    namespace: dict = {}
    exec("from hypersym import *", namespace)
    assert set(names) <= namespace.keys()
    assert [name for name in RETIRED if hasattr(hypersym, name)] == []
