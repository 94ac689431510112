import mapfuse


def test_every_exported_name_resolves():
    assert len(set(mapfuse.__all__)) == len(mapfuse.__all__)
    for name in mapfuse.__all__:
        assert getattr(mapfuse, name) is not None, name


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from mapfuse import *", namespace)
    assert set(mapfuse.__all__) <= set(namespace)
