import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from reference import REFERENCE  # noqa: E402


@pytest.fixture
def both_paths():
    """Run a public checker and its dense reference from ``tests/reference.py``.

    Returns both results, the checker's first.
    """

    def run(check, *args):
        return check(*args), REFERENCE[check](*args)

    return run


@pytest.fixture
def coboundary_builds(monkeypatch):
    """The ``(k, m)`` of every ``Coboundary`` that ``skewhom.cohomology`` builds, in order."""
    from skewhom import cohomology

    built = []

    class Recorded(cohomology.Coboundary):
        def __init__(self, kernel, k, m, *args):
            built.append((k, m))
            super().__init__(kernel, k, m, *args)

    monkeypatch.setattr(cohomology, "Coboundary", Recorded)
    return built
