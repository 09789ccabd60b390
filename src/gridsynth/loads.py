"""Hierarchical per-phase power-demand model.

Buses are grouped by phase category (single-, dual-, three-phase). Each
category has a characteristic potential power drawn from a Gamma whose shape
and rate are themselves Gamma draws from shared hyperparameters, so sparse
categories borrow strength from the others. Dual-phase potentials split
between the two active phases through a Beta factor, three-phase potentials
through a Dirichlet simplex. Per-bus demand deviates from the category mean
through an independent zero-truncated normal on each active phase, and
reactive power follows a network-wide power factor.

The fit checks each bus's demand and files it under its category in one
pass, in input order, naming the first bus at fault. It scores the
likelihood on sufficient statistics: the count, mean and centred sum of
squares of the observations in each (category, active phase) column,
computed once per fit, so a log-posterior call costs the same for any
number of buses. It returns its terms as columns and states which columns
each parameter enters, so ``fit`` decides its ten blocks in three colours.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .distributions import (
    _logpdf_beta,
    _logpdf_dirichlet,
    _logpdf_gamma,
    _logpdf_halfnormal,
    _logpdf_truncnormal_stats,
    _truncnormal_stats,
    sample_truncnormal,
)
from .inference import FitConfig, ParamDef, ParamSpace, Posterior, fit
from .phases import PhaseConfig

__all__ = [
    "BusDemand",
    "draw_power_factor",
    "sample_demand",
    "fit_load_model",
]

# network-wide power factor levels and the uniform-draw thresholds picking them
_PF_RULES = ((0.1649, 0.85), (0.27, 0.90))
_PF_DEFAULT = 0.95

# Gamma(2, 0.5) hyperprior on the shared hyperparameters (weakly informative,
# mean 4); declared here because the category priors hang off it.
_HYPER_SHAPE = 2.0
_HYPER_RATE = 0.5

# the parameters scored by Gamma densities, hyperparameters first, then each
# category's shape and rate, then the potentials
_GAMMA_NAMES = (
    "alpha_hp",
    "beta_hp",
    "alpha_mono",
    "beta_mono",
    "alpha_bi",
    "beta_bi",
    "alpha_tri",
    "beta_tri",
    "p_pot_mono",
    "p_pot_bi",
    "p_pot_tri",
)
_DELTA_TRI_CONCENTRATION = np.array([2.0, 2.0, 2.0])
# the log-posterior's term columns: the Gamma terms in _GAMMA_NAMES order,
# the priors of delta_bi, delta_tri and sigma_p, then the likelihood columns
_FIRST_LIKELIHOOD = 14


def draw_power_factor(rng) -> float:
    """Draw the three-level network power factor from one uniform."""
    u = rng.random()
    for threshold, pf in _PF_RULES:
        if 0.0 < u <= threshold:
            return pf
    return _PF_DEFAULT


@dataclass(frozen=True)
class BusDemand:
    """Per-phase active/reactive demand; entries are zero exactly on absent phases."""

    p_kw: np.ndarray
    q_kvar: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.p_kw, dtype=float)
        if p.shape != (3,) or any(x < 0.0 for x in p.tolist()):
            raise ValueError("p_kw must be a nonnegative 3-vector")


def sample_demand(draw, config: PhaseConfig, rng, pf: float) -> BusDemand:
    """Draw one bus demand. ``pf`` is the network-level power factor,
    drawn once per network sample, not per bus.

    Each active phase draws a zero-truncated normal of scale ``sigma_p``
    around its share of the category potential: a single-phase bus takes
    all of ``p_pot_mono``; a dual-phase bus gives the ``delta_bi`` share of
    ``p_pot_bi`` to its alphabetically first active phase and the rest to
    the other; a three-phase bus splits ``p_pot_tri`` by ``delta_tri``.
    Absent phases draw nothing and stay zero.
    """
    active = config._phase_indices
    if len(active) == 1:
        means = [draw["p_pot_mono"]]
    elif len(active) == 2:
        pot, delta = draw["p_pot_bi"], draw["delta_bi"]
        means = [pot * delta, pot * (1.0 - delta)]
    else:
        means = draw["p_pot_tri"] * np.asarray(draw["delta_tri"], dtype=float)
    sigma = float(draw["sigma_p"])
    p = [0.0, 0.0, 0.0]
    for i, mean in zip(active, means):
        p[i] = sample_truncnormal(rng, mean, sigma, 0.0)
    ratio = math.tan(math.acos(pf))
    return BusDemand(p_kw=np.array(p), q_kvar=np.array([x * ratio for x in p]))


def fit_load_model(
    demands: dict[str, np.ndarray],
    allocations: dict[str, PhaseConfig],
    config: FitConfig | None = None,
) -> Posterior:
    """Fit the demand hierarchy to observed per-bus 3-vectors (kW).

    Observations are grouped by each bus's configuration; entries on inactive
    phases must be zero. Empty categories fall back toward the shared
    hyperprior with a warning.
    """
    if not demands:
        raise ValueError("no demand observations")
    # each category's observations, the active phases of each bus in A, B, C
    # order; the first bus at fault is named, with the first check it fails
    observations = ([], [], [])
    for bus, vec in demands.items():
        p = np.asarray(vec, dtype=float)  # numpy's own error if not numbers
        values = p.tolist()
        cfg = allocations.get(bus)
        if p.shape != (3,):
            fault = "demand must be a 3-vector"
        elif not all(map(math.isfinite, values)):
            fault = f"non-finite demand {values}"
        elif min(values) < 0.0:
            fault = "negative demand"
        elif cfg is None:
            fault = "no phase configuration"
        elif any(x for i, x in enumerate(values) if i not in cfg._phase_indices):
            fault = f"nonzero demand on a phase absent from {cfg.name}"
        else:
            active = cfg._phase_indices
            observations[len(active) - 1].append([values[i] for i in active])
            continue
        raise ValueError(f"bus {bus}: {fault}")
    mono, bi, tri = (
        np.array(rows, dtype=float).reshape(-1, k) for k, rows in enumerate(observations, 1)
    )
    for name, category in (("mono", mono), ("bi", bi), ("tri", tri)):
        if not category.size:
            warnings.warn(
                f"no {name}-phase observations; its potential falls back to the "
                "shared hyperprior",
                stacklevel=2,
            )
    mono = mono.reshape(-1)

    space = ParamSpace(
        [
            *(ParamDef(name, (), "positive") for name in _GAMMA_NAMES),
            ParamDef("delta_bi", (), "unit"),
            ParamDef("delta_tri", (3,), "simplex"),
            ParamDef("sigma_p", (), "positive"),
        ],
        blocks=[
            ["alpha_hp", "beta_hp"],
            ["alpha_mono", "beta_mono"],
            ["alpha_bi", "beta_bi"],
            ["alpha_tri", "beta_tri"],
        ],
    )

    # sufficient statistics of the observed demands: one column per
    # (category, active phase), in the order of the means below
    by_category = ((mono[:, None], [0]), (bi, [1, 2]), (tri, [3, 4, 5]))
    observed = [(rows, cols) for rows, cols in by_category if rows.size]
    # demands whose totals or spread overflow leave the potentials' init,
    # sigma_p's scale and the statistics infinite: fit cannot start, and says
    # so; a three-phase split that such a total leaves 0 or NaN starts uniform
    with np.errstate(over="ignore", invalid="ignore"):
        sigma_scale = float(np.std(np.concatenate([mono, bi.ravel(), tri.ravel()]))) or 1.0
        stats = np.concatenate([_truncnormal_stats(rows) for rows, _ in observed], axis=1)
        bi_share = bi[:, 0].mean() / max(bi.sum(axis=1).mean(), 1e-9) if bi.size else 0.5
        tri_share = tri.mean(axis=0) / tri.mean(axis=0).sum() if tri.size else np.zeros(3)
        init = {
            "alpha_hp": 4.0,
            "beta_hp": 1.0,
            "alpha_mono": 2.0,
            "beta_mono": 1.0,
            "alpha_bi": 2.0,
            "beta_bi": 1.0,
            "alpha_tri": 2.0,
            "beta_tri": 1.0,
            "p_pot_mono": float(np.mean(mono)) if mono.size else 1.0,
            "p_pot_bi": float(np.mean(bi.sum(axis=1))) if bi.size else 1.0,
            "p_pot_tri": float(np.mean(tri.sum(axis=1))) if tri.size else 1.0,
            "delta_bi": float(np.clip(bi_share, 0.05, 0.95)),
            "delta_tri": tri_share if np.all(tri_share > 0.0) else np.full(3, 1.0 / 3.0),
            "sigma_p": max(sigma_scale * 0.5, 1e-3),
        }
    columns = [c for _, cols in observed for c in cols]
    # the kernels bound to what the fit holds fixed: the priors' parameters
    # and the observations' statistics
    delta_bi_prior = _logpdf_beta(2.0, 2.0)
    delta_tri_prior = _logpdf_dirichlet(_DELTA_TRI_CONCENTRATION)
    sigma_prior = _logpdf_halfnormal(sigma_scale)
    likelihood = _logpdf_truncnormal_stats(stats, 0.0)

    def logpost(v) -> np.ndarray:
        # the terms as columns: the eleven Gamma terms, the hyperparameters
        # under the fixed hyperprior, each category's shape and rate under
        # the hyperparameters and each potential under its category's shape
        # and rate; the priors of delta_bi, delta_tri and sigma_p; then one
        # truncated-normal likelihood term per observed column
        g = space.stack(v, _GAMMA_NAMES)
        shape = np.empty_like(g)
        rate = np.empty_like(g)
        shape[..., :2], rate[..., :2] = _HYPER_SHAPE, _HYPER_RATE
        shape[..., 2:8], rate[..., 2:8] = g[..., :1], g[..., 1:2]
        shape[..., 8:], rate[..., 8:] = g[..., 2:8:2], g[..., 3:8:2]
        lp = np.empty(g.shape[:-1] + (_FIRST_LIKELIHOOD + len(columns),))
        # the values scored are parameters here, so the Gamma binds them per
        # call
        lp[..., :11] = _logpdf_gamma(g)(shape, rate)
        lp[..., 11] = delta_bi_prior(v["delta_bi"])
        lp[..., 12] = delta_tri_prior(v["delta_tri"])
        sigma = v["sigma_p"]
        lp[..., 13] = sigma_prior(sigma)
        # each category potential split over its active phases
        delta_bi = v["delta_bi"]
        means = np.empty(g.shape[:-1] + (6,))
        means[..., 0] = g[..., 8]
        means[..., 1] = g[..., 9] * delta_bi
        means[..., 2] = g[..., 9] * (1.0 - delta_bi)
        means[..., 3:] = g[..., 10:] * v["delta_tri"]
        lp[..., _FIRST_LIKELIHOOD:] = likelihood(means[..., columns], sigma[..., None])
        return lp

    # the columns each parameter enters: its own term, the Gamma terms it is
    # a shape or rate of, and the likelihood columns of the means it feeds
    mean_of = [("p_pot_mono",)] + [("p_pot_bi", "delta_bi")] * 2 + [("p_pot_tri", "delta_tri")] * 3
    terms = {name: [i] for i, name in enumerate(_GAMMA_NAMES)}
    terms.update(delta_bi=[11], delta_tri=[12], sigma_p=[13])
    for name in ("alpha_hp", "beta_hp"):
        terms[name] += list(range(2, 8))
    for i, cat in enumerate(("mono", "bi", "tri")):
        terms[f"alpha_{cat}"].append(8 + i)
        terms[f"beta_{cat}"].append(8 + i)
    for j, c in enumerate(columns, start=_FIRST_LIKELIHOOD):
        for name in (*mean_of[c], "sigma_p"):
            terms[name].append(j)

    ensemble = fit(logpost, space, config, init=init, terms=terms)
    return Posterior(ensemble)
