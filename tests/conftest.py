"""Shared test fixtures."""

import inspect

import pytest


@pytest.fixture
def record_calls(monkeypatch):
    """``record_calls(owner, name)`` wraps ``owner.name`` and returns the
    list of the positional-argument tuples of its finished calls.  A
    simulation step (a generator) is listed once it has run to its end,
    any other call at once.  Tests count calls this way instead of reading
    counters the program does not keep."""

    def install(owner, name):
        calls = []
        original = getattr(owner, name)

        def finish(step, args):
            result = yield from step
            calls.append(args)
            return result

        def recorded(*args, **kwargs):
            result = original(*args, **kwargs)
            if inspect.isgenerator(result):
                return finish(result, args)
            calls.append(args)
            return result

        monkeypatch.setattr(owner, name, recorded)
        return calls

    return install
