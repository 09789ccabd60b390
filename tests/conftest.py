"""Shared fixtures."""

import pytest

from gridsynth import lines, loads, phases, reliability
from gridsynth.inference import PosteriorEnsemble


@pytest.fixture
def fit_calls(monkeypatch):
    """Record what each model module passes to ``fit`` instead of sampling:
    a list of ``(log_posterior, space, init, exact)``, one entry per fit."""
    calls = []

    def record(log_posterior, space, config=None, init=None, exact=()):
        calls.append((log_posterior, space, init, list(exact)))
        return PosteriorEnsemble(draws={})

    for module in (phases, loads, reliability, lines):
        monkeypatch.setattr(module, "fit", record)
    return calls
