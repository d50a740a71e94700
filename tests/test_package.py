import srtrkit


def test_every_public_name_resolves():
    missing = [name for name in srtrkit.__all__ if not hasattr(srtrkit, name)]
    assert not missing
    namespace = {}
    exec("from srtrkit import *", namespace)
    assert set(srtrkit.__all__) <= set(namespace)
