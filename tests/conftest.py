"""Shared fixtures."""

import numpy as np
import pytest

from gridsynth import lines, loads, phases, reliability
from gridsynth.inference import PosteriorEnsemble


@pytest.fixture
def fit_calls(monkeypatch):
    """Record what each model module passes to ``fit`` instead of sampling:
    a list of ``(log_posterior, space, init, exact, terms)``, one entry per
    fit. Each fit returns an ensemble of no draws."""
    calls = []

    def record(log_posterior, space, config=None, init=None, exact=(), terms=None):
        calls.append((log_posterior, space, init, list(exact), terms))
        return PosteriorEnsemble(draws={d.name: np.zeros((0, *d.shape)) for d in space.defs})

    for module in (phases, loads, reliability, lines):
        monkeypatch.setattr(module, "fit", record)
    return calls
