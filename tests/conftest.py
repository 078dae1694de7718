import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def linprog_calls(monkeypatch):
    """List that grows by one entry per LP solved through stationopt.polytope."""
    from stationopt import polytope

    calls = []
    solve = polytope.linprog

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(polytope, "linprog", counted)
    return calls
