import ssdfi


def test_every_exported_name_resolves():
    assert len(set(ssdfi.__all__)) == len(ssdfi.__all__)
    missing = [name for name in ssdfi.__all__ if not hasattr(ssdfi, name)]
    assert missing == []


def test_star_import():
    namespace: dict = {}
    exec("from ssdfi import *", namespace)
    assert set(ssdfi.__all__) <= set(namespace)
