"""The one byte cap: each library estimate goes through ``errors.check_bytes``,
which reads ``errors.BYTE_CAP`` at the call, and a refused call allocates
nothing first."""

import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest

from regraph import errors, limitproc, spectra, walks
from regraph.errors import ResourceLimitError
from regraph.graphs import sample_permutation_model


@contextmanager
def _allocates_under(size):
    tracemalloc.start()
    try:
        yield
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < size


def _census(monkeypatch):
    n = 5000
    g = np.argsort(np.random.default_rng(1).random((2, n)), axis=1)
    walks.batch_class_counts([g[:, :0]], 4)  # fill the plan cache
    # refused below one int32 vertex array
    return (walks.census_graph_bytes(2, n), lambda: walks.batch_class_counts([g], 4),
            lambda: _allocates_under(4 * n))


def _nb_trace(monkeypatch):
    g = sample_permutation_model(50, 2, np.random.default_rng(2))

    @contextmanager
    def no_edge_matrix():
        with monkeypatch.context() as m:
            m.setattr(walks, "_nb_successors", lambda g: pytest.fail("edge matrix built"))
            yield

    return (walks.nb_trace_bytes(g.degree * g.n, g.degree, 6),
            lambda: walks.cnbw_via_nb_matrix(g, 6), no_edge_matrix)


def _eigen_solve(monkeypatch):
    n = 1000
    g = sample_permutation_model(n, 2, np.random.default_rng(3))
    # refused below one n-vertex float array
    return spectra.eigen_bytes(n), lambda: spectra.eigenvalues(g), lambda: _allocates_under(8 * n)


def _simulate_limit(monkeypatch):
    rng = np.random.default_rng(4)
    model = limitproc.limit_model(2, 3)

    @contextmanager
    def no_draw():
        state = rng.bit_generator.state
        yield
        assert rng.bit_generator.state == state

    return (limitproc.limit_bytes(model, 50, 2, 1.0, True),
            lambda: limitproc.simulate_limit(2, 3, 1.0, [0.0, 1.0], True, rng, replicas=50),
            no_draw)


@pytest.mark.parametrize("case", [_census, _nb_trace, _eigen_solve, _simulate_limit],
                         ids=lambda f: f.__name__.strip("_"))
def test_cap_admits_the_estimate_and_refuses_a_byte_less(monkeypatch, case):
    need, call, untouched = case(monkeypatch)
    monkeypatch.setattr(errors, "BYTE_CAP", need)
    call()
    monkeypatch.setattr(errors, "BYTE_CAP", need - 1)
    with untouched():
        with pytest.raises(ResourceLimitError, match=f"needs about {need:.0f} bytes, over"):
            call()


def test_check_bytes_reads_the_cap_at_the_call(monkeypatch):
    errors.check_bytes(errors.BYTE_CAP, "at the cap")
    with pytest.raises(ResourceLimitError, match="^a census needs about 2147483649 bytes, over 2147483648$"):
        errors.check_bytes(2**31 + 1, "a census")
    monkeypatch.setattr(errors, "BYTE_CAP", 2**32)
    errors.check_bytes(2**31 + 1, "a census")
