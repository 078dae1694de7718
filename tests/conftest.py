import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def linprog_calls(monkeypatch):
    """List that grows by one entry per LP solved through stationopt.polytope.

    Clears the station-range memo first, so the count is that of a fresh
    build whatever ran before.
    """
    from stationopt import polytope, ranges

    ranges._station_facets.cache_clear()

    calls = []
    solve = polytope.linprog

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(polytope, "linprog", counted)
    return calls
