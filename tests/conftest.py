import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from skewhom import algebra  # noqa: E402


@pytest.fixture
def both_paths(monkeypatch):
    """Run a checker as is and again with ``algebra._sparse`` off.

    Exact backends take the sparse path by default; with the switch off the
    same public checker runs its dense reference loop.  Returns both results,
    sparse first.
    """

    def run(check, *args):
        fast = check(*args)
        with monkeypatch.context() as patch:
            patch.setattr(algebra, "_sparse", lambda g: False)
            dense = check(*args)
        return fast, dense

    return run
