"""Fixtures shared by the test modules."""

import numpy as np
import pytest

import bosegas.quadrature as quadrature


@pytest.fixture
def eliminations(monkeypatch):
    """Counts of the recursion's eliminations: the steps each start takes by
    its open grid lines, as ("start", lines), and the sum-outs by the rank of
    their message, as ("sum_out", rank), rank 0 at the start of a one- or
    two-line term."""
    calls = {}
    real_start, real_sum_out = quadrature._start, quadrature._sum_out

    def start(open_, steps, *args):
        key = ("start", len(open_))
        calls[key] = calls.get(key, 0) + len(steps)
        return real_start(open_, steps, *args)

    def sum_out(core, *args):
        key = ("sum_out", 0 if core is None else np.ndim(core))
        calls[key] = calls.get(key, 0) + 1
        return real_sum_out(core, *args)

    monkeypatch.setattr(quadrature, "_start", start)
    monkeypatch.setattr(quadrature, "_sum_out", sum_out)
    return calls
