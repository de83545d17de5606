import lrhankel


def test_public_names_resolve():
    # a trimmed export must not leave a stale name in __all__
    for name in lrhankel.__all__:
        getattr(lrhankel, name)
