"""The package's public names."""

import peakonlab


def test_every_exported_name_resolves_once_and_star_import_runs():
    names = peakonlab.__all__
    assert len(names) == len(set(names))
    assert all(hasattr(peakonlab, name) for name in names)
    namespace = {}
    exec("from peakonlab import *", namespace)  # raises if a listed name is missing
    assert set(names) <= namespace.keys()
