"""Fixtures shared by the test modules."""

import pytest


@pytest.fixture
def calls(monkeypatch):
    """``calls(owner, *names, key=None)``: record the calls made to named callables.

    Replaces each named attribute of ``owner`` (a module or a class) for the
    test's duration by a wrapper, and returns the list to which each call
    through a wrapper appends, once the call returns, ``key(*args,
    **kwargs)`` when ``key`` is given and the callable's name otherwise.
    """
    def watch(owner, *names, key=None):
        made = []
        for name in names:
            original = getattr(owner, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                result = _original(*args, **kwargs)
                made.append(_name if key is None else key(*args, **kwargs))
                return result

            monkeypatch.setattr(owner, name, counting)
        return made

    return watch
