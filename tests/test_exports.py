"""The package's public names."""

import rghw


def test_every_export_resolves_and_star_import_succeeds():
    assert [name for name in rghw.__all__ if not hasattr(rghw, name)] == []
    namespace = {}
    exec("from rghw import *", namespace)
    assert set(rghw.__all__) <= set(namespace)
