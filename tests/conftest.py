"""Suite-wide fixtures."""

import pytest

from repro.consistency.checker import LiveChecker
from tests.consistency.reference_checker import ReferenceLiveChecker


@pytest.fixture
def shadow_checker(monkeypatch):
    """Differential oracle for the incremental ``LiveChecker``.

    While the fixture is active every ``LiveChecker`` built gets a
    full-state ``ReferenceLiveChecker`` on the same state and trace; at
    teardown each pair must hold byte-equal violation lists and equal
    armed sets.  Yields the list
    of shadows so a test can assert that it exercised any.
    """
    shadows: list[ReferenceLiveChecker] = []
    monkeypatch.setattr(ReferenceLiveChecker, "instances", shadows)
    plain_init = LiveChecker.__init__

    def shadowed_init(self, state, trace):
        plain_init(self, state, trace)
        ReferenceLiveChecker(state, trace, shadows=self)

    monkeypatch.setattr(LiveChecker, "__init__", shadowed_init)
    yield shadows
    for shadow in shadows:
        shadow.assert_agrees()
