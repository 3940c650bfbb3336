"""Shared test helpers."""

import tracemalloc

import pytest


@pytest.fixture
def traced_peak():
    """A function that runs a callable under tracemalloc and returns the
    peak of the traced memory, in bytes, over that run."""

    def peak(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return peak


@pytest.fixture
def call_counts(monkeypatch):
    """A function count(module, name) that wraps module.name through
    monkeypatch, passing every call through, and returns the list of the
    positional arguments of the calls made since, one tuple a call."""

    def count(module, name):
        calls = []
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    return count
