"""The exact steps the sub-models hand to ``fit``, each called directly.

Each step is taken from the ``exact`` argument the model passes to ``fit``
(recorded by the ``fit_calls`` fixture) and run on many chains with the
other parameters held fixed, so its draws can be compared with the full
conditional it claims to sample. The phase base and CAIDI gate steps enter
no term column, so ``fit`` calls them once, on every kept row of every
chain: they get values of shape ``(chains, kept, ...)``.

The joint-distribution tests (Geweke 2004) run exact steps through ``fit``
itself: the data are a parameter that an exact step redraws from its
likelihood, so ``fit`` samples the joint prior and the kept parameter draws
must match the prior's moments.
"""

import itertools
import warnings

import numpy as np
from scipy import stats
from scipy.special import gammaln, logsumexp

from gridsynth.distributions import make_rng
from gridsynth.inference import FitConfig, ParamDef, ParamSpace, _effective_sample_size, fit
from gridsynth.lines import _MIXTURE_COMPONENTS, fit_line_model
from gridsynth.topology import ZoneAssignment, group_by_zone
from test_distributions import assert_moments
from test_model_logposts import ZONES, dataset, fit_model

CHAINS = 8


def recorded_step(fit_calls, model, data):
    """The one exact step of the model's (first) fit and that fit's init."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        fit_model(model, data)
    _, _, init, exact, _ = fit_calls[0]
    ((names, draw),) = exact
    return names, draw, init


def chain_rows(values: dict, *rows: int) -> dict:
    """One copy of each value per row, on leading axes of sizes ``rows``
    (chains, then kept rows if given)."""
    return {
        name: np.tile(np.asarray(v, dtype=float), rows + (1,) * np.ndim(v))
        for name, v in values.items()
    }


def test_phase_step_draws_dirichlet_of_concentration_plus_counts(fit_calls):
    data = dataset()
    names, draw, init = recorded_step(fit_calls, "phase", data)
    z_count = ZONES.zone_count
    assert names == [f"base_z{z}" for z in range(1, z_count + 1)]
    indices = group_by_zone(
        {bus: cfg.index for bus, cfg in data["phases"].items()}, ZONES.bus_zone, z_count
    )
    counts = np.array([np.bincount(g.astype(int), minlength=7) for g in indices], dtype=float)
    # fixed concentration rows, entries below 1 included
    conc = {f"conc_z{z}": np.linspace(0.2, 2.0, 7) * z for z in range(1, z_count + 1)}
    values = chain_rows({**init, **conc}, CHAINS, 1500)
    rngs = [make_rng(700 + c) for c in range(CHAINS)]
    draws = draw(values, rngs)
    for z in range(1, z_count + 1):
        alpha = conc[f"conc_z{z}"] + counts[z - 1]
        total = alpha.sum()
        assert draws[f"base_z{z}"].shape == (CHAINS, 1500, 7)
        got = draws[f"base_z{z}"].reshape(-1, 7)
        for k in range(7):
            mean = alpha[k] / total
            var = alpha[k] * (total - alpha[k]) / (total**2 * (total + 1.0))
            assert_moments(got[:, k], mean, var)


def test_hurdle_step_draws_the_beta_posterior(fit_calls):
    data = dataset()
    names, draw, init = recorded_step(fit_calls, "caidi", data)
    assert names == ["hurdle_p"]
    grouped = group_by_zone(data["caidi"], ZONES.bus_zone, ZONES.zone_count)
    n_zero = np.array([np.sum(g == 0.0) for g in grouped], dtype=float)
    n_pos = np.array([np.sum(g > 0.0) for g in grouped], dtype=float)
    values = chain_rows(init, CHAINS, 1500)
    rngs = [make_rng(710 + c) for c in range(CHAINS)]
    got = draw(values, rngs)["hurdle_p"]
    assert got.shape == (CHAINS, 1500, ZONES.zone_count)
    got = got.reshape(-1, ZONES.zone_count)
    a, b = 1.0 + n_pos, 1.0 + n_zero
    for z in range(ZONES.zone_count):
        mean = a[z] / (a[z] + b[z])
        var = a[z] * b[z] / ((a[z] + b[z]) ** 2 * (a[z] + b[z] + 1.0))
        assert_moments(got[:, z], mean, var)


# two zones, three lines each, so 3^6 indicator assignments can be enumerated
MIX_ZONES = ZoneAssignment(
    zone_count=2,
    bus_zone={},
    line_zone={f"l{i}": 1 + i % 2 for i in range(6)},
)
MIX_DATA = {f"l{i}": x for i, x in enumerate([0.8, 1.2, 1.9, 2.6, 3.5, 5.0])}
MIX_MEANS = np.array([1.0, 2.0, 4.0])
MIX_CV = 0.5


def enumerated_weight_means() -> np.ndarray:
    """Posterior means of the zone weights given the means and the cv, by
    summing over every indicator assignment: p(s) is the Gamma likelihood of
    the assignment times the Dirichlet(1)-multinomial marginal of each zone's
    counts, and E[w_zk | s] = (1 + n_zk) / (K + n_z)."""
    k = _MIXTURE_COMPONENTS
    grouped = group_by_zone(MIX_DATA, MIX_ZONES.line_zone, MIX_ZONES.zone_count)
    x = np.concatenate(grouped)
    zone_of = np.repeat(np.arange(len(grouped)), [g.size for g in grouped])
    shape = 1.0 / MIX_CV**2
    log_f = stats.gamma.logpdf(x[:, None], shape, scale=MIX_CV**2 * MIX_MEANS[None, :])
    log_p, means = [], []
    for s in itertools.product(range(k), repeat=x.size):
        counts = np.zeros((len(grouped), k))
        np.add.at(counts, (zone_of, np.array(s)), 1.0)
        n = counts.sum(axis=1)
        marginal = gammaln(k) - gammaln(k + n) + gammaln(1.0 + counts).sum(axis=1)
        log_p.append(log_f[np.arange(x.size), list(s)].sum() + marginal.sum())
        means.append((1.0 + counts) / (k + n)[:, None])
    weights = np.exp(np.array(log_p) - logsumexp(log_p))
    return np.tensordot(weights, np.array(means), axes=1)


def test_mixture_weights_step_matches_enumeration(fit_calls):
    # one step draws both mixtures' weights; both see the same data here
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        fit_line_model(MIX_DATA, MIX_DATA, MIX_ZONES)
    _, _, init, exact, _ = fit_calls[0]
    ((names, draw),) = exact
    assert names == ["r_weights_z1", "r_weights_z2", "rho_weights_z1", "rho_weights_z2"]
    chains, burn, kept = 16, 50, 600
    fixed = {f"{p}_{k}": v for p in ("r", "rho") for k, v in (("means", MIX_MEANS), ("cv", MIX_CV))}
    values = chain_rows({**init, **fixed}, chains)
    rngs = [make_rng(720 + c) for c in range(chains)]
    trace = np.empty((kept, chains, 4, _MIXTURE_COMPONENTS))
    for it in range(burn + kept):
        values.update(draw(values, rngs))
        if it >= burn:
            trace[it - burn] = np.stack([values[n] for n in names], axis=1)
    np.testing.assert_array_equal(values["r_means"], np.repeat(MIX_MEANS[None], chains, 0))
    expected = enumerated_weight_means()
    for i, name in enumerate(names):
        z = i % 2
        for k in range(_MIXTURE_COMPONENTS):
            series = trace[:, :, i, k].T  # (chains, draws)
            se = series.std() / np.sqrt(_effective_sample_size(series[..., None])[0])
            assert abs(series.mean() - expected[z, k]) < 4 * se, (name, k, series.mean(), expected)


def geweke_draws(with_phi: bool) -> dict:
    """Kept draws of a joint-distribution test (Geweke 2004): theta ~ Gamma(2,
    1) on a Metropolis block, three y_i | theta ~ Normal(theta, 1) redrawn by
    an exact step each sweep, and, with ``with_phi``, phi | theta ~
    Normal(theta, 1) in a step that leaves the sweep. ``fit`` then samples
    the joint prior, so theta's kept draws follow Gamma(2, 1) and phi's have
    mean 2 and variance 3. Each array is ``(chains, kept)``."""

    def normal_about_theta(name, size):
        def draw(v, rngs):
            return {name: np.array([r.normal(t, 1.0, size) for r, t in zip(rngs, v["theta"])])}

        return [name], draw

    def logpost(v):
        theta = v["theta"]
        likelihood = -0.5 * ((v["y"] - theta[:, None]) ** 2).sum(axis=1)
        lp = np.stack([np.log(theta) - theta, likelihood], axis=1)
        return lp if with_phi else lp.sum(axis=1)

    defs = [ParamDef("theta", (), "positive"), ParamDef("y", (3,), "real")]
    exact = [normal_about_theta("y", 3)]
    init = {"theta": 2.0, "y": np.full(3, 2.0)}
    terms = None
    if with_phi:
        defs.append(ParamDef("phi", (), "real"))
        exact.append(normal_about_theta("phi", None))
        init["phi"] = 2.0
        terms = {"theta": [0, 1], "y": [1], "phi": []}
    config = FitConfig(chains=4, warmup=500, draws=8000, thin=4, seed=3)
    ensemble = fit(logpost, ParamSpace(defs), config, init=init, exact=exact, terms=terms)
    return {name: draws.reshape(config.chains, -1) for name, draws in ensemble.draws.items()}


def z_score(series: np.ndarray, expected: float) -> float:
    """The mean of a ``(chains, draws)`` series against ``expected``, in
    standard errors from its effective sample size."""
    se = series.std() / np.sqrt(_effective_sample_size(series[..., None])[0])
    return float((series.mean() - expected) / se)


def assert_prior_moments(series: np.ndarray, mean: float, var: float) -> None:
    """Mean and variance within 4 standard errors of the prior's."""
    z = z_score(series, mean), z_score((series - mean) ** 2, var)
    assert max(map(abs, z)) < 4.0, z


def test_joint_distribution_with_an_exact_step_in_the_sweep():
    draws = geweke_draws(with_phi=False)
    assert_prior_moments(draws["theta"], 2.0, 2.0)


def test_joint_distribution_with_a_step_that_leaves_the_sweep():
    draws = geweke_draws(with_phi=True)
    assert_prior_moments(draws["theta"], 2.0, 2.0)
    assert_prior_moments(draws["phi"], 2.0, 3.0)
