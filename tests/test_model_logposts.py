"""The five sub-model log-posteriors under the batched contract of ``fit``.

Each batched log-posterior is checked row by row against a test-local copy of
the scalar log-posterior it replaced (one constrained draw in, one float out),
scored with ``scipy.stats`` rather than the package's own kernels, on the sum
of its term columns; a batch against its rows and slices scored alone, bit
for bit; each model's statement of the term columns each parameter enters
against what changing that parameter alone changes; and each model's first
chain of a 4-chain fit against a 1-chain fit.
"""

import math
import warnings

import numpy as np
import pytest
from scipy import stats
from scipy.special import gammaln

from gridsynth.distributions import (
    make_rng,
    sample_gamma,
    sample_negbinomial,
    sample_weibull,
)
from gridsynth.inference import FitConfig
from gridsynth.lines import _MIXTURE_COMPONENTS, fit_line_model
from gridsynth.loads import fit_load_model, sample_demand
from gridsynth.phases import CONFIGS, fit_phase_model
from gridsynth.reliability import fit_caidi, fit_caifi
from gridsynth.topology import ZoneAssignment, group_by_zone
from test_inference import constrain

BUSES = [f"b{i:02d}" for i in range(60)]
LINES = [f"l{i:02d}" for i in range(40)]
# zone 2 has no lines, so the line model sees an empty zone
ZONES = ZoneAssignment(
    zone_count=3,
    bus_zone={bus: 1 + i % 3 for i, bus in enumerate(BUSES)},
    line_zone={line: (1, 3)[i % 2] for i, line in enumerate(LINES)},
)
LOAD_TRUTH = {
    "p_pot_mono": 2.0,
    "p_pot_bi": 5.0,
    "p_pot_tri": 12.0,
    "delta_bi": 0.6,
    "delta_tri": np.array([0.40, 0.35, 0.25]),
    "sigma_p": 0.3,
}


def dataset():
    rng = make_rng(404)
    phases = {bus: CONFIGS[int(rng.random() * 7)] for bus in BUSES}
    demands = {bus: sample_demand(LOAD_TRUTH, cfg, rng, 0.95).p_kw for bus, cfg in phases.items()}
    caidi = {
        bus: 0.0 if rng.random() < 0.3 else float(sample_weibull(rng, 1.2, 2.0)) for bus in BUSES
    }
    caifi = {bus: sample_negbinomial(rng, 1.5, 2.0) for bus in BUSES}
    r1 = {line: float(sample_gamma(rng, 4.0, 10.0)) for line in LINES}
    rho = {line: float(sample_gamma(rng, 9.0, 6.0)) for line in LINES}
    return {
        "phases": phases, "loads": demands, "caidi": caidi, "caifi": caifi, "r1": r1, "rho": rho
    }


def fit_model(model, data, config=None):
    """Run one model's fit."""
    if model == "phase":
        return fit_phase_model(data["phases"], ZONES, config)
    if model == "load":
        return fit_load_model(data["loads"], data["phases"], config)
    if model == "caidi":
        return fit_caidi(data["caidi"], ZONES, config)
    if model == "caifi":
        return fit_caifi(data["caifi"], ZONES, config)
    return fit_line_model(data["r1"], data["rho"], ZONES, config)


# ---------------------------------------------------------------------------
# The scalar log-posteriors the batched ones replaced, copied with the data
# preparation they read


def logpdf_gamma(x, shape, rate):
    return stats.gamma.logpdf(x, shape, scale=1.0 / rate)


def logpdf_halfnormal(x, sigma):
    return stats.halfnorm.logpdf(x, scale=sigma)


def logpdf_dirichlet(x, concentration) -> float:
    """Zero density off the open simplex, where ``scipy.stats.dirichlet``
    raises instead."""
    x = np.asarray(x, dtype=float)
    if not (np.all(concentration > 0.0) and np.all(x > 0.0) and abs(x.sum() - 1.0) <= 1e-9):
        return -np.inf
    return float(stats.dirichlet.logpdf(x, concentration))


def logpdf_truncnormal(x, mu, sigma, lower):
    return stats.truncnorm.logpdf(x, (lower - mu) / sigma, np.inf, loc=mu, scale=sigma)


def logpmf_negbinomial(k, mu, alpha):
    """Negative Binomial with mean ``mu`` and dispersion ``alpha``, in closed
    form: ``scipy.stats.nbinom`` takes ``p = alpha / (alpha + mu)``, which
    rounds to 1 when ``mu`` is tiny against ``alpha``, and then scores every
    positive count -inf where the log-mass is finite."""
    norm = gammaln(k + alpha) - gammaln(alpha) - gammaln(k + 1.0)
    return norm - alpha * np.log1p(mu / alpha) + k * np.log(mu / (alpha + mu))


def phase_reference(data):
    observed = data["phases"]
    z_count = ZONES.zone_count
    indices = group_by_zone(
        {bus: cfg.index for bus, cfg in observed.items()}, ZONES.bus_zone, z_count
    )
    counts = np.array([np.bincount(g.astype(int), minlength=7) for g in indices], dtype=float)

    def logpost(values) -> float:
        # the base rows summed out: the Dirichlet-multinomial marginal of the
        # counts, up to the multinomial coefficient
        lp = 0.0
        for z in range(1, z_count + 1):
            conc = values[f"conc_z{z}"]
            lp += float(np.sum(logpdf_halfnormal(conc, 1.0)))
            if lp == -np.inf or not np.all(conc > 0.0):
                return -np.inf
            n = counts[z - 1]
            lp += float(gammaln(conc.sum()) - gammaln(conc.sum() + n.sum()))
            lp += float(np.sum(gammaln(conc + n) - gammaln(conc)))
        return lp

    return [logpost]


def load_reference(data):
    mono_rows, bi_rows, tri_rows = [], [], []
    for bus, vec in data["loads"].items():
        active = [i for i, p in enumerate("ABC") if p in data["phases"][bus].phases]
        {1: mono_rows, 2: bi_rows, 3: tri_rows}[len(active)].append(np.asarray(vec)[active])
    mono = np.array(mono_rows).reshape(-1) if mono_rows else np.empty(0)
    bi = np.array(bi_rows) if bi_rows else np.empty((0, 2))
    tri = np.array(tri_rows) if tri_rows else np.empty((0, 3))
    sigma_scale = float(np.std(np.concatenate([mono, bi.ravel(), tri.ravel()]))) or 1.0

    def logpost(v) -> float:
        lp = float(logpdf_gamma(v["alpha_hp"], 2.0, 0.5))
        lp += float(logpdf_gamma(v["beta_hp"], 2.0, 0.5))
        for cat in ("mono", "bi", "tri"):
            lp += float(logpdf_gamma(v[f"alpha_{cat}"], v["alpha_hp"], v["beta_hp"]))
            lp += float(logpdf_gamma(v[f"beta_{cat}"], v["alpha_hp"], v["beta_hp"]))
            lp += float(logpdf_gamma(v[f"p_pot_{cat}"], v[f"alpha_{cat}"], v[f"beta_{cat}"]))
        lp += float(stats.beta.logpdf(v["delta_bi"], 2.0, 2.0))
        lp += logpdf_dirichlet(v["delta_tri"], np.array([2.0, 2.0, 2.0]))
        lp += float(logpdf_halfnormal(v["sigma_p"], sigma_scale))
        sigma = v["sigma_p"]
        if mono.size:
            lp += float(np.sum(logpdf_truncnormal(mono, v["p_pot_mono"], sigma, 0.0)))
        if bi.size:
            mu_first = v["p_pot_bi"] * v["delta_bi"]
            mu_second = v["p_pot_bi"] * (1.0 - v["delta_bi"])
            lp += float(np.sum(logpdf_truncnormal(bi[:, 0], mu_first, sigma, 0.0)))
            lp += float(np.sum(logpdf_truncnormal(bi[:, 1], mu_second, sigma, 0.0)))
        if tri.size:
            mu = v["p_pot_tri"] * v["delta_tri"]
            for i in (0, 1, 2):
                lp += float(np.sum(logpdf_truncnormal(tri[:, i], mu[i], sigma, 0.0)))
        return lp

    return [logpost]


def caidi_reference(data):
    z_count = ZONES.zone_count
    grouped = group_by_zone(data["caidi"], ZONES.bus_zone, z_count)
    positives = [g[g > 0.0] for g in grouped]

    def logpost(v) -> float:
        # one (shape, scale) pair of scalars per zone; the gate's terms factor
        # out (tests/test_reliability.py)
        shape = np.array([v[f"weib_shape_z{z}"] for z in range(1, z_count + 1)])
        scale = np.array([v[f"weib_scale_z{z}"] for z in range(1, z_count + 1)])
        lp = float(np.sum(logpdf_halfnormal(shape, 1.0)))
        lp += float(np.sum(logpdf_halfnormal(scale, 1.0)))
        for z in range(z_count):
            if positives[z].size:
                weibull = stats.weibull_min.logpdf(positives[z], shape[z], scale=scale[z])
                lp += float(np.sum(weibull))
        return lp

    return [logpost]


def caifi_reference(data):
    z_count = ZONES.zone_count
    grouped = group_by_zone(data["caifi"], ZONES.bus_zone, z_count)

    def logpost(v) -> float:
        mu = np.atleast_1d(v["freq_mean"])
        alpha = v["dispersion"]
        lp = float(np.sum(logpdf_halfnormal(mu, 1.0)))
        lp += float(logpdf_halfnormal(alpha, 1.0))
        for z in range(z_count):
            if grouped[z].size:
                lp += float(np.sum(logpmf_negbinomial(grouped[z], mu[z], alpha)))
        return lp

    return [logpost]


def line_reference(data):
    def mixture(prefix, grouped):
        def logpost(v) -> float:
            means = v[f"{prefix}_means"]
            cv = v[f"{prefix}_cv"]
            lp = float(logpdf_halfnormal(means[0], 1.0))
            lp += float(np.sum(logpdf_halfnormal(np.diff(means), 1.0)))
            lp += float(logpdf_halfnormal(cv, 0.5))
            shape, rates = 1.0 / cv**2, 1.0 / (cv**2 * means)
            for z, values in enumerate(grouped, start=1):
                weights = v[f"{prefix}_weights_z{z}"]
                lp += logpdf_dirichlet(weights, np.ones(_MIXTURE_COMPONENTS))
                if lp == -np.inf:
                    return lp
                if values.size == 0:
                    continue
                comp = np.stack(
                    [
                        np.log(weights[k]) + logpdf_gamma(values, shape, rates[k])
                        for k in range(_MIXTURE_COMPONENTS)
                    ]
                )
                peak = comp.max(axis=0)
                lp += float(np.sum(peak + np.log(np.sum(np.exp(comp - peak), axis=0))))
            return lp

        return logpost

    z_count = ZONES.zone_count
    r = mixture("r", group_by_zone(data["r1"], ZONES.line_zone, z_count))
    rho = mixture("rho", group_by_zone(data["rho"], ZONES.line_zone, z_count))
    # both mixtures are fitted as one model
    return [lambda v: r(v) + rho(v)]


REFERENCES = {
    "phase": phase_reference,
    "load": load_reference,
    "caidi": caidi_reference,
    "caifi": caifi_reference,
    "line": line_reference,
}


def scored_by_fit(logpost, values) -> float:
    """What the sampler made of a scalar score: an out-of-domain parameter
    (``scipy.stats`` scores it NaN) or any other non-finite value is a
    rejection."""
    try:
        lp = float(logpost(values))
    except (ZeroDivisionError, OverflowError):
        return -np.inf
    return lp if math.isfinite(lp) else -np.inf


def row(values, i):
    return {name: float(v[i]) if v.ndim == 1 else v[i].copy() for name, v in values.items()}


@pytest.mark.parametrize("model", sorted(REFERENCES))
def test_batched_log_posterior_matches_scalar_reference(model, fit_calls):
    data = dataset()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        fit_model(model, data)
    references = REFERENCES[model](data)
    assert len(fit_calls) == len(references)
    rng = make_rng(505)
    for (log_posterior, space, init, _, terms), reference in zip(fit_calls, references):
        z = space.to_unconstrained(init) + rng.standard_normal((30, space.dim))
        # rows outside the open support, which ``fit`` swaps for the state
        # before any call: coordinates whose transforms underflow to 0 or
        # overflow to inf, and a far row; then one where densities vanish
        z[24, 0] = -800.0
        z[25, -1] = -800.0
        z[26, 0] = 800.0
        z[27, space.dim // 2] = 800.0
        z[28] *= 60.0
        z[29, :] = -30.0
        with np.errstate(all="ignore"):
            values, _ = constrain(space, z)
        outside = space._outside(values.flat).any(axis=-1)
        assert outside[24:28].all()
        # the model scores the rows that can reach it
        z = z[~outside]
        with np.errstate(all="ignore"):
            values, _ = constrain(space, z)
            batched = log_posterior(values)
            expected = [scored_by_fit(reference, row(values, i)) for i in range(len(z))]
        assert batched.shape == ((len(z),) if terms is None else (len(z), term_count(terms)))
        # each row, and each 10-row slice, scores bit for bit as in the whole
        # batch: the sampler stacks several row sets into one call
        parts = [slice(i, i + 1) for i in range(len(z))] + [slice(i, i + 10) for i in (0, 10, 20)]
        for part in parts:
            with np.errstate(all="ignore"):
                alone = log_posterior({name: v[part] for name, v in values.items()})
            np.testing.assert_array_equal(alone, batched[part], err_msg=str(part))
        # ordinary rows score with numpy's warnings on
        log_posterior({name: v[:24] for name, v in values.items()})
        assert sum(math.isfinite(e) for e in expected) >= 20
        total = batched.reshape(len(z), -1).sum(axis=-1)
        for i, e in enumerate(expected):
            if e == -np.inf:
                assert total[i] == -np.inf, (i, batched[i])
            else:
                assert total[i] == pytest.approx(e, rel=1e-12), i


def term_count(terms) -> int:
    return 1 + max(c for columns in terms.values() for c in columns)


@pytest.mark.parametrize("model", sorted(REFERENCES))
def test_term_statement_is_complete(model, fit_calls):
    # changing one parameter alone, to another in-support value, leaves the
    # bits of every term column not stated for it
    data = dataset()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        fit_model(model, data)
    ((log_posterior, space, init, _, terms),) = fit_calls
    terms = terms or {name: [0] for name in space._by_name}
    assert terms.keys() == space._by_name.keys()
    rng = make_rng(606)
    start = space.to_unconstrained(init)
    values, _ = constrain(space, start + 0.3 * rng.standard_normal((16, space.dim)))
    moved, _ = constrain(space, start + 0.3 * rng.standard_normal((16, space.dim)))
    before = log_posterior(values).reshape(16, -1)
    assert np.all(np.isfinite(before))
    for name, stated in terms.items():
        after = log_posterior({**values, name: moved[name]}).reshape(16, -1)
        others = [c for c in range(before.shape[1]) if c not in stated]
        np.testing.assert_array_equal(after[:, others], before[:, others], err_msg=name)


@pytest.mark.parametrize("model", sorted(REFERENCES))
def test_first_chain_does_not_depend_on_chain_count(model):
    # warm-up past 150 steps runs the proposal-covariance adaptation twice
    data = dataset()
    four = FitConfig(chains=4, warmup=160, draws=20, thin=1, seed=8)
    one = FitConfig(chains=1, warmup=160, draws=20, thin=1, seed=8)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        a = fit_model(model, data, four).ensemble
        b = fit_model(model, data, one).ensemble
    assert a.draws.keys() == b.draws.keys()
    for name, draws in b.draws.items():
        np.testing.assert_array_equal(a.draws[name][: len(draws)], draws, err_msg=name)
