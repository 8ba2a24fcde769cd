import ensddm


def test_every_export_resolves():
    missing = [name for name in ensddm.__all__ if not hasattr(ensddm, name)]
    assert not missing
    assert len(set(ensddm.__all__)) == len(ensddm.__all__)
