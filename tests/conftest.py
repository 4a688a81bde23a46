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
