"""Every test starts and ends with a fresh run ledger: a budget or memo left
by one test (directly or through cli.main) never reaches the next."""

from __future__ import annotations

import pytest

from graphmotive import stats


@pytest.fixture(autouse=True)
def _fresh_ledger():
    stats.reset()
    yield
    stats.reset()
