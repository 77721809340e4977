"""The package's export list names only what the package defines."""

import foliflow as ff


def test_all_names_are_attributes():
    missing = [name for name in ff.__all__ if not hasattr(ff, name)]
    assert missing == []


def test_all_has_no_duplicates():
    assert len(ff.__all__) == len(set(ff.__all__))


def test_star_import_succeeds():
    namespace = {}
    exec("from foliflow import *", namespace)
    assert set(ff.__all__) <= set(namespace)
