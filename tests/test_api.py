import mocapkey


def test_public_names_resolve_and_are_listed_once():
    names = mocapkey.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(mocapkey, n)] == []
