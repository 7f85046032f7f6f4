import types

import vanetmarket


def test_all_lists_exactly_the_public_names():
    bound = [
        name
        for name, value in vars(vanetmarket).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    ]
    assert vanetmarket.__all__ == sorted(bound)
