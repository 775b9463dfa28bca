"""The package's public surface is ``geolex.__all__``."""

from __future__ import annotations

import geolex


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from geolex import *", namespace)
    del namespace["__builtins__"]
    assert len(set(geolex.__all__)) == len(geolex.__all__)
    assert set(namespace) == set(geolex.__all__)
    for name in geolex.__all__:
        assert namespace[name] is getattr(geolex, name)
