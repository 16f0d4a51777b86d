"""The package's public names."""

import augeig


def test_all_names_import():
    namespace = {}
    exec("from augeig import *", namespace)  # raises on a name __all__ lists but the package lacks
    assert set(augeig.__all__) <= set(namespace)
