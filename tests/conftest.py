"""Fixtures shared by the test modules."""

import contextlib
import tracemalloc
from types import SimpleNamespace

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


@pytest.fixture
def traced_memory():
    """``with traced_memory() as traced:``: trace the Python allocations of the block.

    Tracing starts at the block's entry and stops at its exit, where
    ``traced.peak`` becomes the traced peak and ``traced.retained`` the
    traced size at exit less the size at entry, both in bytes.
    """
    @contextlib.contextmanager
    def trace():
        traced = SimpleNamespace(peak=None, retained=None)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            yield traced
            current, traced.peak = tracemalloc.get_traced_memory()
            traced.retained = current - before
        finally:
            tracemalloc.stop()

    return trace
