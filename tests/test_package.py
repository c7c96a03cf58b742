import glome


def test_every_public_name_resolves():
    namespace = {}
    exec("from glome import *", namespace)
    assert [name for name in glome.__all__ if name not in namespace] == []
    assert len(set(glome.__all__)) == len(glome.__all__)
