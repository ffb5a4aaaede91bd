"""Fixtures shared by the test modules."""

import pytest


@pytest.fixture(scope="session")
def shipped_runs(tmp_path_factory):
    """(golden record, unexecuted statements) of the runs of
    ``test_golden.RUNS``: one line-traced pass, which the golden digests and
    the reach guard both read."""
    from test_reach import trace_shipped_runs

    return trace_shipped_runs(tmp_path_factory.mktemp("shipped-runs"))
