"""Zone-conditioned reliability indices.

Interruption duration (CAIDI, hours) is a hurdle model: a per-zone Bernoulli
gate decides whether a bus sees any interruption at all, and positive
durations follow a per-zone Weibull. Interruption frequency (CAIFI,
events/year) is Negative Binomial with a per-zone mean and one global
overdispersion parameter. The hurdle indicator is marginalized analytically
in the likelihood rather than sampled. The gate probabilities are a
posteriori independent of the Weibull parameters: their terms factor out of
the log-posterior as Beta(1 + positives, 1 + zeros), so they enter no term
column and ``fit`` draws them exactly, once after its sweeps, for every kept
row. The Weibull parameters and the CAIFI model take Metropolis steps. Each
zone's Weibull (shape, scale) pair is one block, and the log-posterior
returns one term column per zone, so the five blocks share one colour of
``fit``.
"""

from __future__ import annotations

import warnings

import numpy as np

from .distributions import (
    ParameterError,
    _logpdf_halfnormal,
    _logpdf_weibull,
    _logpmf_negbinomial,
    sample_beta,
    sample_negbinomial,
    sample_weibull,
)
from .inference import FitConfig, ParamDef, ParamSpace, Posterior, fit
from .topology import ZoneAssignment, group_by_zone

__all__ = [
    "sample_caidi",
    "sample_caifi",
    "fit_caidi",
    "fit_caifi",
]


def _require_zone(zone: int, per_zone) -> None:
    """Raise ``ParameterError`` naming ``zone`` unless it is one of 1..Z,
    where Z is the length of the draw's per-zone vector ``per_zone``."""
    if not 1 <= zone <= len(per_zone):
        raise ParameterError(f"zone {zone} is outside 1..{len(per_zone)}")


def sample_caidi(draw, zone: int, rng) -> float:
    """Zero with probability 1 - p_zone, else a Weibull duration draw."""
    hurdle_p = draw["hurdle_p"]
    _require_zone(zone, hurdle_p)
    p = hurdle_p[zone - 1]
    if not 0.0 <= p <= 1.0:
        raise ParameterError(f"zone {zone}: hurdle probability {p} is outside [0, 1]")
    if rng.random() >= p:
        return 0.0
    return float(sample_weibull(rng, draw["weib_shape"][zone - 1], draw["weib_scale"][zone - 1]))


def sample_caifi(draw, zone: int, rng) -> int:
    freq_mean = draw["freq_mean"]
    _require_zone(zone, freq_mean)
    return sample_negbinomial(rng, freq_mean[zone - 1], float(draw["dispersion"]))


def fit_caidi(
    durations: dict[str, float],
    zones: ZoneAssignment,
    config: FitConfig | None = None,
) -> Posterior:
    """Fit per-zone hurdle probabilities and Weibull duration parameters.

    One duration value per bus; zeros feed the hurdle only, whose
    probabilities are drawn exactly (see the module docstring). Zones with no
    positive durations keep the Weibull prior (warning).
    """
    if not durations:
        raise ValueError("no duration observations")
    z_count = zones.zone_count
    grouped = group_by_zone(durations, zones.bus_zone, z_count)
    # group_by_zone has checked that every value is a finite number
    bad = next((bus for bus, v in durations.items() if float(v) < 0.0), None)
    if bad is not None:
        raise ValueError(f"bus {bad!r}: durations must be nonnegative")
    n_zero = np.array([float(np.sum(g == 0.0)) for g in grouped])
    positives = [g[g > 0.0] for g in grouped]
    n_pos = np.array([float(p.size) for p in positives])
    empty = [z + 1 for z, p in enumerate(positives) if p.size == 0]
    if empty:
        warnings.warn(
            f"zones without positive durations keep the prior Weibull: {empty}",
            stacklevel=2,
        )

    # one (shape, scale) block per zone, as scalars that the fit stacks back
    zone_names = [(f"weib_shape_z{z}", f"weib_scale_z{z}") for z in range(1, z_count + 1)]
    shape_names, scale_names = zip(*zone_names)
    space = ParamSpace(
        [ParamDef("hurdle_p", (z_count,), "unit")]
        + [ParamDef(name, (), "positive") for pair in zone_names for name in pair],
        blocks=[list(pair) for pair in zone_names],
    )
    # zone z's Weibull parameters enter its column alone; hurdle_p none
    terms = {name: [z] for z, pair in enumerate(zone_names) for name in pair}
    terms["hurdle_p"] = []

    # positive durations by zone, padded to one length with masked ones
    width = max([1] + [p.size for p in positives])
    valid = np.arange(width) < n_pos[:, None]
    durations_pos = np.ones((z_count, width))
    durations_pos[valid] = np.concatenate(positives)
    prior = _logpdf_halfnormal(1.0)
    weibull = _logpdf_weibull(durations_pos)

    def logpost(v) -> np.ndarray:
        # one column per zone, (rows, zones); the hurdle indicator is
        # marginalized (zeros -> log(1-p), positives -> log p + Weibull) and
        # its gate terms, with their Beta(1, 1) prior, factor out
        shape, scale = space.stack(v, shape_names), space.stack(v, scale_names)
        lp = prior(shape) + prior(scale)
        lp += np.where(valid, weibull(shape[..., None], scale[..., None]), 0.0).sum(axis=-1)
        return lp

    def draw_hurdle(values, rngs) -> dict[str, np.ndarray]:
        # Beta(1, 1) prior, n_pos successes and n_zero failures per zone, for
        # every kept row; chain c draws from rngs[c]
        successes = np.broadcast_to(1.0 + n_pos, values["hurdle_p"].shape)
        return {"hurdle_p": sample_beta(rngs, successes, 1.0 + n_zero)}

    init = {"hurdle_p": np.clip(n_pos / np.maximum(n_pos + n_zero, 1.0), 0.02, 0.98)}
    for (shape_name, scale_name), p in zip(zone_names, positives):
        init[shape_name] = 1.0
        init[scale_name] = float(np.mean(p)) if p.size else 1.0
    ensemble = fit(
        logpost, space, config, init=init, exact=[(["hurdle_p"], draw_hurdle)], terms=terms
    )
    for i, name in enumerate(("weib_shape", "weib_scale")):
        per_zone = [ensemble.draws.pop(pair[i]) for pair in zone_names]
        ensemble.draws[name] = np.stack(per_zone, axis=-1)
    return Posterior(ensemble)


def fit_caifi(
    counts: dict[str, int],
    zones: ZoneAssignment,
    config: FitConfig | None = None,
) -> Posterior:
    """Fit per-zone Negative Binomial means and the global dispersion."""
    if not counts:
        raise ValueError("no count observations")
    z_count = zones.zone_count
    grouped = group_by_zone(counts, zones.bus_zone, z_count)
    # group_by_zone has checked that every value is a finite number
    bad = next((bus for bus, v in counts.items() if float(v) < 0.0 or float(v) % 1.0), None)
    if bad is not None:
        raise ValueError(f"bus {bad!r}: counts must be nonnegative integers")
    empty = [z + 1 for z, g in enumerate(grouped) if g.size == 0]
    if empty:
        warnings.warn(f"zones without count observations keep the prior: {empty}", stacklevel=2)

    space = ParamSpace(
        [
            ParamDef("freq_mean", (z_count,), "positive"),
            ParamDef("dispersion", (), "positive"),
        ]
    )

    observed = np.concatenate(grouped)
    zone_of = np.repeat(np.arange(z_count), [g.size for g in grouped])
    prior = _logpdf_halfnormal(1.0)
    likelihood = _logpmf_negbinomial(observed, zone_of)

    def logpost(v) -> np.ndarray:
        mu, alpha = v["freq_mean"], v["dispersion"]
        lp = prior(mu).sum(axis=-1)
        lp += prior(alpha)
        lp += likelihood(mu, alpha).sum(axis=-1)
        return lp

    init = {
        "freq_mean": np.array(
            [max(float(np.mean(g)), 0.05) if g.size else 0.5 for g in grouped]
        ),
        "dispersion": 1.0,
    }
    ensemble = fit(logpost, space, config, init=init)
    return Posterior(ensemble)
