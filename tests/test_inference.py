"""Sampler-engine checks: transforms, conjugate oracles, diagnostics.

The toy models score with ``scipy.stats`` or closed forms, never with the
package's own log-density kernels.
"""

import hashlib
import math
import warnings

import numpy as np
import pytest
from scipy import stats
from scipy.special import gammaln

from gridsynth import inference
from gridsynth.distributions import make_rng, sample_gamma
from gridsynth.inference import (
    FitConfig,
    InitializationError,
    ParamDef,
    ParamSpace,
    _effective_sample_size,
    _split_rhat,
    _summarize_chains,
    fit,
)

FAST = FitConfig(chains=4, warmup=800, draws=800, thin=2, seed=42)


def constrain(space, z):
    """Named constrained values of ``z`` (shape ``(..., dim)``) and the
    log-Jacobian of the transform."""
    flat, log_jacobian = space._constrain_flat(z)
    return space._unpack(flat), log_jacobian


# ---------------------------------------------------------------------------
# Transforms


@pytest.mark.parametrize(
    "definition,z",
    [
        (ParamDef("a", (), "real"), [0.7]),
        (ParamDef("a", (), "positive"), [-0.3]),
        (ParamDef("a", (3,), "positive"), [0.1, -1.0, 2.0]),
        (ParamDef("a", (), "unit"), [0.4]),
        (ParamDef("a", (4,), "simplex"), [0.3, -0.2, 0.9]),
        (ParamDef("a", (3,), "ordered_positive"), [0.2, -0.5, 0.1]),
    ],
)
def test_transform_round_trip(definition, z):
    space = ParamSpace([definition])
    z = np.asarray(z, dtype=float)
    values, _ = constrain(space, z)
    back = space.to_unconstrained(values)
    np.testing.assert_allclose(back, z, atol=1e-9)


@pytest.mark.parametrize(
    "definition,z",
    [
        (ParamDef("a", (), "positive"), [-0.3]),
        (ParamDef("a", (2,), "positive"), [0.1, -1.0]),
        (ParamDef("a", (), "unit"), [0.4]),
        (ParamDef("a", (3,), "simplex"), [0.3, -0.2]),
        (ParamDef("a", (4,), "simplex"), [0.3, -0.2, 1.1]),
        (ParamDef("a", (3,), "ordered_positive"), [0.2, -0.5, 0.1]),
    ],
)
def test_log_jacobian_matches_finite_differences(definition, z):
    # oracle: numerical determinant of the free coordinates of the forward map
    space = ParamSpace([definition])
    z = np.asarray(z, dtype=float)
    dim = len(z)

    def free_coords(zz):
        v = np.atleast_1d(np.asarray(constrain(space, zz)[0][definition.name]))
        return v[:dim]  # simplex drops its last (dependent) coordinate

    eps = 1e-6
    jac = np.empty((dim, dim))
    for j in range(dim):
        zp, zm = z.copy(), z.copy()
        zp[j] += eps
        zm[j] -= eps
        jac[:, j] = (free_coords(zp) - free_coords(zm)) / (2 * eps)
    numeric = math.log(abs(np.linalg.det(jac)))
    assert constrain(space, z)[1] == pytest.approx(numeric, abs=1e-5)


def test_simplex_support_of_draws():
    space = ParamSpace([ParamDef("w", (5,), "simplex"), ParamDef("m", (3,), "ordered_positive")])
    rng = make_rng(3)
    for _ in range(200):
        z = rng.standard_normal(space.dim) * 3
        vals, _ = constrain(space, z)
        w = vals["w"]
        assert np.all(w >= 0.0) and abs(w.sum() - 1.0) < 1e-12
        m = vals["m"]
        assert np.all(np.diff(m) > 0.0) and np.all(m > 0.0)


# ---------------------------------------------------------------------------
# fit() against conjugate / analytic oracles


def test_beta_bernoulli_conjugate():
    # Beta(1,1) prior, 7 successes / 3 failures -> Beta(8,4): mean 2/3
    space = ParamSpace([ParamDef("p", (), "unit")])

    def logpost(v):
        return stats.beta.logpdf(v["p"], 1.0, 1.0) + 7 * np.log(v["p"]) + 3 * np.log(1.0 - v["p"])

    ensemble = fit(logpost, space, FAST)
    assert ensemble.draws["p"].mean() == pytest.approx(8.0 / 12.0, abs=0.02)


TABLE_PROBS = np.array([0.142, 0.137, 0.131, 0.187, 0.143, 0.223, 0.038])


def test_dirichlet_categorical_recovery():
    counts = np.round(TABLE_PROBS * 13_500)
    space = ParamSpace(
        [ParamDef("conc", (7,), "positive"), ParamDef("probs", (7,), "simplex")]
    )

    def logpost(v):
        conc, probs = v["conc"], v["probs"]
        lp = np.sum(stats.halfnorm.logpdf(conc), axis=-1)
        # Dirichlet(conc) log-density, one row per chain
        lp += gammaln(conc.sum(axis=-1)) - gammaln(conc).sum(axis=-1)
        lp += np.sum((conc - 1.0) * np.log(probs), axis=-1)
        lp += np.sum(counts * np.log(probs), axis=-1)
        return lp

    init = {"conc": np.ones(7), "probs": counts / counts.sum()}
    with warnings.catch_warnings():
        # R-hat of an 800-sweep fit: probs[1] and probs[6] read about 1.09
        # and 1.06; the test bounds only the posterior mean
        warnings.filterwarnings("ignore", "R-hat", UserWarning)
        ensemble = fit(logpost, space, FAST, init=init)
    mean = ensemble.draws["probs"].mean(axis=0)
    empirical = counts / counts.sum()
    assert np.max(np.abs(mean - empirical)) <= 0.01


def test_zero_data_posterior_equals_prior():
    # no likelihood: the HalfNormal(1) prior's mean is sqrt(2/pi)
    space = ParamSpace([ParamDef("s", (), "positive")])
    ensemble = fit(lambda v: stats.halfnorm.logpdf(v["s"]), space, FAST)
    assert ensemble.draws["s"].mean() == pytest.approx(math.sqrt(2.0 / math.pi), abs=0.05)


def test_detailed_balance_standard_normal():
    space = ParamSpace([ParamDef("x", (), "real")])
    config = FitConfig(chains=4, warmup=1000, draws=100_000, thin=4, seed=7)
    ensemble = fit(lambda v: -0.5 * v["x"] ** 2, space, config)
    draws = ensemble.draws["x"]
    assert draws.size == 100_000
    assert abs(draws.mean()) < 0.02
    assert 0.95 < draws.var() < 1.05


def test_reproducible_ensembles():
    space = ParamSpace([ParamDef("x", (), "positive")])

    def logpost(v):
        return stats.gamma.logpdf(v["x"], 3.0, scale=0.5)

    a = fit(logpost, space, FitConfig(chains=2, warmup=200, draws=200, thin=2, seed=9))
    b = fit(logpost, space, FitConfig(chains=2, warmup=200, draws=200, thin=2, seed=9))
    np.testing.assert_array_equal(a.draws["x"], b.draws["x"])


@pytest.mark.parametrize("blocks", [[["x"], ["x"]], [["x", "x"]]])
def test_parameter_in_two_blocks_is_rejected(blocks):
    # two copies of one parameter's coordinates would go stale against each other
    defs = [ParamDef("x", (), "positive"), ParamDef("y", (), "real")]
    with pytest.raises(ValueError, match="'x'"):
        ParamSpace(defs, blocks=blocks)


@pytest.mark.parametrize(
    "init,message",
    [
        ({"x": 1.0}, "missing.*'y'"),
        ({"x": 1.0, "y": np.zeros(2), "z": 0.0}, "unknown.*'z'"),
        ({"x": 1.0, "y": np.zeros(3)}, "'y'.*size 2.*size 3"),
    ],
    ids=["missing", "unknown", "wrong-size"],
)
def test_init_entries_must_match_the_space(init, message):
    space = ParamSpace([ParamDef("x", (), "positive"), ParamDef("y", (2,), "real")])
    with pytest.raises(ValueError, match=message):
        space.to_unconstrained(init)


def test_initialization_error():
    space = ParamSpace([ParamDef("x", (), "real")])
    with pytest.raises(InitializationError):
        fit(lambda v: np.full(v["x"].shape, np.nan), space, FAST)


def test_rhat_warning_on_stuck_chains(monkeypatch):
    # two narrow modes far apart: chains starting on opposite sides cannot mix
    space = ParamSpace([ParamDef("x", (), "real")])

    def logpost(v):
        x = v["x"]
        return np.logaddexp(-0.5 * ((x - 40) / 0.1) ** 2, -0.5 * ((x + 40) / 0.1) ** 2)

    monkeypatch.setattr(inference, "_INIT_JITTER", 45.0)
    config = FitConfig(chains=4, warmup=300, draws=300, thin=1, seed=11)
    with pytest.warns(UserWarning, match="R-hat"):
        ensemble = fit(logpost, space, config)
    assert ensemble.diagnostics["rhat"]["x"] > 1.05


def test_one_rhat_warning_per_fit(monkeypatch):
    # the stuck bimodal target on every component of a vector parameter
    space = ParamSpace([ParamDef("x", (3,), "real")])

    def logpost(v):
        x = v["x"]
        return np.sum(
            np.logaddexp(-0.5 * ((x - 40) / 0.1) ** 2, -0.5 * ((x + 40) / 0.1) ** 2), axis=-1
        )

    monkeypatch.setattr(inference, "_INIT_JITTER", 45.0)
    config = FitConfig(chains=4, warmup=300, draws=300, thin=1, seed=11)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ensemble = fit(logpost, space, config)
    rhat_warnings = [str(w.message) for w in caught if "R-hat" in str(w.message)]
    high = [name for name, r in ensemble.diagnostics["rhat"].items() if r > 1.05]
    assert len(high) >= 2
    assert len(rhat_warnings) == 1
    assert f"for {len(high)} scalars" in rhat_warnings[0]
    for name in high:
        assert f"{name} (" in rhat_warnings[0]


def test_constant_chains_that_disagree_are_not_converged():
    # four chains stuck at 0, 1, 2 and 3: no within-chain variance at all
    stuck = np.repeat(np.arange(4.0)[:, None, None], 20, axis=1)
    assert _split_rhat(stuck)[0] == math.inf
    assert _effective_sample_size(stuck)[0] == 4.0
    # chains that agree on one constant are converged, one draw each apart
    agreed = np.full((4, 20, 1), 2.5)
    assert _split_rhat(agreed)[0] == 1.0
    assert _effective_sample_size(agreed)[0] == 80.0


def test_thinning_past_the_draw_count_is_rejected():
    # nothing would be kept: the fit must not run to fail in its summary
    with pytest.raises(ValueError, match="invalid fit configuration"):
        FitConfig(draws=3, thin=4)
    assert FitConfig(draws=4, thin=4).thin == 4


# The per-scalar diagnostics the vectorised summary replaced, copied here as
# the oracle it must match


def reference_split_rhat(chains):
    c, n = chains.shape
    half = n // 2
    if half < 2:
        return float("nan")
    seqs = np.concatenate([chains[:, :half], chains[:, half : 2 * half]], axis=0)
    if not np.ptp(seqs, axis=1).any():
        return 1.0 if np.ptp(seqs[:, 0]) == 0.0 else math.inf
    m, length = seqs.shape
    means = seqs.mean(axis=1)
    variances = seqs.var(axis=1, ddof=1)
    w = variances.mean()
    b = length * means.var(ddof=1)
    var_plus = (length - 1.0) / length * w + b / length
    return float(math.sqrt(var_plus / w))


def reference_ess(chains):
    c, n = chains.shape
    total = c * n
    if not np.ptp(chains, axis=1).any():
        return float(total) if np.ptp(chains[:, 0]) == 0.0 else float(c)
    centered = chains - chains.mean(axis=1, keepdims=True)
    var = centered.var(axis=1).mean()
    max_lag = min(n - 1, 500)

    def rho(lag):
        cov = np.mean([np.dot(centered[i, :-lag], centered[i, lag:]) / n for i in range(c)])
        return cov / var

    tau = 0.0
    for lag in range(1, max_lag, 2):
        pair = rho(lag) + rho(lag + 1)
        if pair < 0.0:
            break
        tau += pair
    ess = total / (1.0 + 2.0 * tau)
    return float(min(max(ess, 1.0), total))


def ar1_chains(rng, chains, draws, phis):
    """``(chains, draws, len(phis))`` AR(1) series, one coefficient per scalar."""
    noise = rng.standard_normal((chains, draws, len(phis)))
    x = np.empty_like(noise)
    x[:, 0] = noise[:, 0]
    for t in range(1, draws):
        x[:, t] = np.asarray(phis) * x[:, t - 1] + noise[:, t]
    return x


@pytest.mark.parametrize("draws", [20, 21, 500])
def test_summary_matches_per_scalar_diagnostics(draws):
    rng = make_rng(900 + draws)
    x = ar1_chains(rng, 4, draws, [0.0, 0.5, 0.9, -0.3])
    # a constant the chains agree on, and chains stuck at different constants
    agreed = np.full((4, draws, 1), 2.5)
    stuck = np.repeat(np.arange(4.0)[:, None, None], draws, axis=1)
    chain_draws = np.concatenate([x, agreed, stuck], axis=2)
    space = ParamSpace(
        [ParamDef("x", (4,), "real"), ParamDef("agreed", (), "real"), ParamDef("stuck", (), "real")]
    )
    names, pooled, rhat, ess = _summarize_chains(space, chain_draws)
    assert names == ["x[0]", "x[1]", "x[2]", "x[3]", "agreed", "stuck"]
    np.testing.assert_array_equal(pooled["x"], chain_draws[:, :, :4].reshape(-1, 4))
    for j in range(chain_draws.shape[2]):
        series = chain_draws[:, :, j]
        assert rhat[j] == pytest.approx(reference_split_rhat(series), rel=1e-12), names[j]
        assert ess[j] == pytest.approx(reference_ess(series), rel=1e-12), names[j]
        # one scalar alone gets the value it gets among the others
        assert _split_rhat(series[..., None])[0] == pytest.approx(rhat[j], rel=1e-12)
        assert _effective_sample_size(series[..., None])[0] == pytest.approx(ess[j], rel=1e-12)
    assert (rhat[4], ess[4]) == (1.0, 4.0 * draws)
    assert (rhat[5], ess[5]) == (math.inf, 4.0)


def test_log_posterior_calls_per_fit():
    # a grouped block and two scalar blocks, then one exact step: the first
    # two blocks are scored as a pair, the third alone
    space = ParamSpace(
        [
            ParamDef("a", (), "real"),
            ParamDef("b", (), "real"),
            ParamDef("c", (), "positive"),
            ParamDef("d", (), "real"),
            ParamDef("y", (), "real"),
        ],
        blocks=[["a", "b"]],
    )

    def draw_y(v, rngs):
        return {"y": np.array([rng.standard_normal() for rng in rngs])}

    def rows_per_call(rejected_call=None):
        calls = []

        def logpost(v):
            calls.append(v["a"].shape[0])
            lp = -0.5 * (v["a"] ** 2 + v["b"] ** 2 + v["d"] ** 2 + v["y"] ** 2)
            lp = lp + stats.gamma.logpdf(v["c"], 2.0)
            return np.full(lp.shape, -np.inf) if len(calls) == rejected_call else lp

        config = FitConfig(chains=3, warmup=7, draws=5, thin=1, seed=29)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # R-hat of a 12-sweep fit
            fit(logpost, space, config, exact=[(["y"], draw_y)])
        return calls

    sweeps = 7 + 5
    # init, one jitter attempt, then per sweep a pair of blocks (three row
    # sets of 3 chains) and the lone third block; from the second sweep on,
    # the pair's call also scores the exact step's draw of the sweep before,
    # and the last sweep's draw is scored alone at the end
    assert rows_per_call() == [1, 3, 9, 3] + [12, 3] * (sweeps - 1) + [3]
    # the first jitter attempt scores -inf for every chain, so a second runs
    assert rows_per_call(rejected_call=2) == [1, 3, 3, 9, 3] + [12, 3] * (sweeps - 1) + [3]


def test_rhat_warning_lists_infinite_values():
    # an exact step that keeps every chain where its jittered start put it
    space = ParamSpace([ParamDef("x", (), "real"), ParamDef("s", (), "real")])
    config = FitConfig(chains=4, warmup=20, draws=40, thin=1, seed=5)
    with pytest.warns(UserWarning, match=r"s \(inf\)") as record:
        ensemble = fit(
            lambda v: -0.5 * (v["x"] ** 2 + v["s"] ** 2),
            space,
            config,
            exact=[(["s"], lambda v, rngs: {"s": v["s"].copy()})],
        )
    assert ensemble.diagnostics["rhat"]["s"] == math.inf
    assert ensemble.diagnostics["ess"]["s"] == 4.0
    assert any("s (inf)" in str(w.message) for w in record)


# ---------------------------------------------------------------------------
# Exact steps

RHO = 0.8


def bivariate_normal(v):
    x, y = v["x"], v["y"]
    return -0.5 * (x * x - 2.0 * RHO * x * y + y * y) / (1.0 - RHO**2)


def draw_y(v, rngs):
    # y | x ~ N(rho x, 1 - rho^2), chain c from rngs[c]
    noise = np.array([rng.standard_normal() for rng in rngs])
    return {"y": RHO * v["x"] + math.sqrt(1.0 - RHO**2) * noise}


def test_exact_step_targets_the_joint():
    space = ParamSpace([ParamDef("x", (), "real"), ParamDef("y", (), "real")])
    config = FitConfig(chains=4, warmup=500, draws=8000, thin=2, seed=17)
    ensemble = fit(bivariate_normal, space, config, exact=[(["y"], draw_y)])
    x, y = ensemble.draws["x"], ensemble.draws["y"]
    assert ensemble.diagnostics["acceptance"]["y"] == 1.0
    assert set(ensemble.diagnostics["acceptance"]) == {"x", "y"}
    # Monte Carlo error from the smaller ESS of the two, with 4 standard errors
    ess = min(ensemble.diagnostics["ess"].values())
    assert ess > 1000
    se = 1.0 / math.sqrt(ess)
    assert abs(x.mean()) < 4 * se and abs(y.mean()) < 4 * se
    assert abs(x.var() - 1.0) < 4 * math.sqrt(2.0) * se
    assert abs(y.var() - 1.0) < 4 * math.sqrt(2.0) * se
    assert abs(np.corrcoef(x, y)[0, 1] - RHO) < 4 * (1.0 - RHO**2) * se


def test_exact_step_off_support_keeps_the_state():
    space = ParamSpace([ParamDef("x", (), "real"), ParamDef("s", (), "positive")])
    seen = []

    def logpost(v):
        seen.append(np.min(v["s"]))
        return -0.5 * v["x"] ** 2 + stats.gamma.logpdf(v["s"], 2.0)

    config = FitConfig(chains=3, warmup=30, draws=60, thin=1, seed=19)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # R-hat of the frozen s
        frozen = fit(logpost, space, config, exact=[(["s"], lambda v, r: {"s": -v["s"]})])
        nan = fit(logpost, space, config, exact=[(["s"], lambda v, r: {"s": v["s"] * np.nan})])
    assert min(seen) > 0.0
    for ensemble in (frozen, nan):
        draws = ensemble.draws["s"].reshape(3, 60)
        assert np.all(draws == draws[:, :1])
        assert ensemble.diagnostics["acceptance"]["s"] == 0.0
        assert ensemble.diagnostics["acceptance"]["x"] > 0.0
    np.testing.assert_array_equal(frozen.draws["x"], nan.draws["x"])

    # a finite drawn row the model scores non-finite is rejected the same way
    def picky(v):
        return np.where(v["s"] > 10.0, np.nan, logpost(v))

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        ensemble = fit(picky, space, config, exact=[(["s"], lambda v, r: {"s": v["s"] + 20.0})])
    assert ensemble.diagnostics["acceptance"]["s"] == 0.0


def test_exact_steps_are_reproducible():
    space = ParamSpace([ParamDef("x", (), "real"), ParamDef("y", (), "real")])
    config = FitConfig(chains=3, warmup=100, draws=200, thin=2, seed=23)
    a = fit(bivariate_normal, space, config, exact=[(["y"], draw_y)])
    b = fit(bivariate_normal, space, config, exact=[(["y"], draw_y)])
    for name in ("x", "y"):
        np.testing.assert_array_equal(a.draws[name], b.draws[name])


def banded(v):
    """a ~ N(0, 1), t | a ~ N(a, 1), b ~ Gamma(2) and s ~ Gamma(3), except
    that s inside (1, 2) scores -inf: the support admits it, the model not."""
    lp = -0.5 * (v["a"] ** 2 + (v["t"] - v["a"]) ** 2)
    lp = lp + stats.gamma.logpdf(v["b"], 2.0) + stats.gamma.logpdf(v["s"], 3.0)
    return np.where((v["s"] > 1.0) & (v["s"] < 2.0), -np.inf, lp)


def normals(rngs):
    return np.array([rng.standard_normal() for rng in rngs])


BANDED_STEPS = {
    # s drawn from Gamma(3) alone, so about a quarter of its draws land in the band
    "s": lambda v, rngs: {"s": np.array([rng.gamma(3.0) for rng in rngs])},
    "t": lambda v, rngs: {"t": v["a"] + normals(rngs)},
    "a": lambda v, rngs: {"a": 0.5 * v["t"] + math.sqrt(0.5) * normals(rngs)},
    "b": lambda v, rngs: {"b": np.array([rng.gamma(2.0) for rng in rngs])},
}

# Full bits of the draws and acceptance rates of each banded fit below, keyed
# by its exact steps in order and its thinning. They were recorded with every
# exact draw scored in a call of its own, which scoring the last step's draw
# in the next sweep's first call must reproduce; like tests/test_bit_identity.py
# they hold the bits of one platform's math library
BANDED_DIGESTS = {
    ("s", 1): "05deaffeb2021a93",
    ("s", 3): "2c7f3f519a706e0d",
    ("s-t", 1): "cca014a24556840e",
    ("t-s", 1): "799e687d4c4d4116",
    ("a-b-s-t", 1): "f60c6af12f2b4a70",
}


def banded_fit(steps, thin):
    """The banded model fitted with ``steps`` (exact step names joined by
    ``-``, in order) drawn exactly and the rest by Metropolis."""
    space = ParamSpace(
        [
            ParamDef("a", (), "real"),
            ParamDef("b", (), "positive"),
            ParamDef("s", (), "positive"),
            ParamDef("t", (), "real"),
        ]
    )
    # 110 warm-up sweeps reach the proposal-covariance adaptation
    config = FitConfig(chains=3, warmup=110, draws=30, thin=thin, seed=31)
    exact = [([name], BANDED_STEPS[name]) for name in steps.split("-")]
    init = {"a": 0.0, "b": 2.0, "s": 3.0, "t": 0.0}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # R-hat of a short fit
        return fit(banded, space, config, init=init, exact=exact)


def full_bits_digest(ensemble):
    h = hashlib.sha256()
    for name, draws in ensemble.draws.items():
        h.update(name.encode() + draws.tobytes())
    for name, rate in ensemble.diagnostics["acceptance"].items():
        h.update(name.encode() + rate.hex().encode())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("steps,thin", list(BANDED_DIGESTS))
def test_exact_draws_the_model_rejects_keep_the_state(steps, thin):
    # the last exact step's draws are scored in the next sweep's first call,
    # and every drawn s in the band must be sent back before it is kept
    ensemble = banded_fit(steps, thin)
    s = ensemble.draws["s"]
    assert not np.any((s > 1.0) & (s < 2.0))
    assert 0.0 < ensemble.diagnostics["acceptance"]["s"] < 1.0
    assert full_bits_digest(ensemble) == BANDED_DIGESTS[steps, thin]


def test_exact_names_must_be_known_and_whole_blocks():
    space = ParamSpace(
        [ParamDef("a", (), "real"), ParamDef("b", (), "real"), ParamDef("c", (), "real")],
        blocks=[["a", "b"]],
    )
    keep = lambda v, rngs: {"c": v["c"]}  # noqa: E731
    logpost = lambda v: -0.5 * (v["a"] ** 2 + v["b"] ** 2 + v["c"] ** 2)  # noqa: E731
    with pytest.raises(ValueError, match="unknown"):
        fit(logpost, space, FAST, exact=[(["d"], keep)])
    with pytest.raises(ValueError, match="mixes"):
        fit(logpost, space, FAST, exact=[(["a"], keep)])
    with pytest.raises(ValueError, match="more than one"):
        fit(logpost, space, FAST, exact=[(["c"], keep), (["c"], keep)])


def test_overflowing_proposal_is_rejected():
    # exp(z) overflows to inf for z > ~709.78; the model must never see it
    space = ParamSpace([ParamDef("scale", (), "positive")])
    seen = []

    def logpost(v):
        seen.append(np.max(v["scale"]))
        # an Exponential(1 / scale) observation at 1
        return -np.log(v["scale"]) - 1.0 / v["scale"]

    config = FitConfig(chains=2, warmup=50, draws=50, thin=1, seed=3)
    with np.errstate(all="ignore"):  # draws near 1e308 overflow the R-hat sums too
        ensemble = fit(logpost, space, config, init={"scale": math.exp(709.0)})
    assert max(seen) < math.inf
    assert np.all(np.isfinite(ensemble.draws["scale"]))

    # a model error on finite values still surfaces
    def broken(v):
        if np.all(np.isfinite(v["scale"])):
            raise ValueError("model error")
        return np.zeros(v["scale"].shape)

    with pytest.raises(ValueError, match="model error"):
        fit(broken, space, config)


def test_underflowing_proposal_is_rejected(monkeypatch):
    # exp(z) underflows to 0.0 for z < ~-745.13, outside the positive support; a
    # gamma shape of 0 is outside the model's domain, so it must never see one
    space = ParamSpace([ParamDef("shape", (), "positive")])
    seen = []

    def logpost(v):
        seen.append(np.min(v["shape"]))
        # flat in log(shape) near 0, so the chains wander across the underflow point
        return stats.gamma.logpdf(1.0, v["shape"]) - 2.0 * np.log(v["shape"])

    # long steps from exp(-700) make many proposals land below the underflow point
    monkeypatch.setattr(inference, "_INITIAL_STEP", 30.0)
    config = FitConfig(chains=2, warmup=50, draws=50, thin=1, seed=3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # R-hat of a wandering chain
        ensemble = fit(logpost, space, config, init={"shape": math.exp(-700.0)})
    assert min(seen) > 0.0
    assert np.all(ensemble.draws["shape"] > 0.0)


def fit_beside_a_partner(name, init, logdensity, first, config):
    """Fit the positive scalar ``name`` from ``init`` beside a well-behaved
    positive partner, each in its own block (``name`` the first of the two
    blocks when ``first``). Returns the ensemble and whether every row of
    every call held only finite, positive values."""
    defs = [ParamDef(name, (), "positive"), ParamDef("partner", (), "positive")]
    space = ParamSpace(defs if first else defs[::-1])
    clean = []

    def logpost(v):
        clean.append(all(np.all(np.isfinite(x) & (x > 0.0)) for x in v.values()))
        return logdensity(v[name]) + stats.gamma.logpdf(v["partner"], 2.0)

    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore", UserWarning)  # R-hat of a wandering chain
        ensemble = fit(logpost, space, config, init={name: init, "partner": 1.0})
    return ensemble, all(clean)


@pytest.mark.parametrize("first", [True, False])
def test_overflowing_proposal_is_rejected_beside_another_block(first):
    config = FitConfig(chains=2, warmup=50, draws=50, thin=1, seed=3)
    ensemble, clean = fit_beside_a_partner(
        "scale", math.exp(709.0), lambda s: -np.log(s) - 1.0 / s, first, config
    )
    assert clean
    for draws in ensemble.draws.values():
        assert np.all(np.isfinite(draws) & (draws > 0.0))


# The draws of the underflow fit below, with the reset parameter second, at
# 12 significant digits; recorded before Metropolis blocks were scored in
# pairs, whose reset path must change no draw
UNDERFLOW_PAIR_DIGEST = "d9769295be13381d"


@pytest.mark.parametrize("first", [True, False])
def test_underflowing_proposal_is_rejected_beside_another_block(monkeypatch, first):
    monkeypatch.setattr(inference, "_INITIAL_STEP", 30.0)
    config = FitConfig(chains=2, warmup=50, draws=50, thin=1, seed=3)
    ensemble, clean = fit_beside_a_partner(
        "shape",
        math.exp(-700.0),
        lambda k: stats.gamma.logpdf(1.0, k) - 2.0 * np.log(k),
        first,
        config,
    )
    assert clean
    for draws in ensemble.draws.values():
        assert np.all(draws > 0.0)
    if not first:
        h = hashlib.sha256()
        for name in ("partner", "shape"):
            for value in ensemble.draws[name].tolist():
                h.update(format(value, ".12g").encode() + b";")
        assert h.hexdigest()[:16] == UNDERFLOW_PAIR_DIGEST


def test_log_posterior_must_return_one_value_per_chain():
    space = ParamSpace([ParamDef("x", (), "real")])
    with pytest.raises(ValueError, match="one value per row"):
        fit(lambda v: float(np.sum(-0.5 * v["x"] ** 2)), space, FAST)


def test_acceptance_rate_near_target():
    space = ParamSpace([ParamDef("x", (3,), "real")])
    ensemble = fit(lambda v: -0.5 * np.sum(v["x"] ** 2, axis=-1), space, FAST)
    rate = ensemble.diagnostics["acceptance"]["x"]
    assert 0.2 < rate < 0.55


def test_proposal_covariance_adaptation_mixes_a_correlated_block():
    # correlation 0.99: an isotropic random walk must step at the minor
    # axis's scale and crawls along the major one. The adaptation factors
    # the warm-up covariance from sweep 100 on and steps along it. With it,
    # both scalars read ESS 198-344 and R-hat at most 1.026 over seeds 0-5;
    # with the update switched off, ESS 20-36 and R-hat 1.11-1.54.
    precision = np.linalg.inv(np.array([[1.0, 0.99], [0.99, 1.0]]))
    space = ParamSpace([ParamDef("x", (2,), "real")])
    config = FitConfig(chains=4, warmup=300, draws=600, thin=1, seed=0)
    ensemble = fit(
        lambda v: -0.5 * np.einsum("ci,ij,cj->c", v["x"], precision, v["x"]), space, config
    )
    assert min(ensemble.diagnostics["ess"].values()) > 100
    assert max(ensemble.diagnostics["rhat"].values()) < 1.05


def test_posterior_predictive_gamma_recovery():
    # fit a Gamma mean to synthetic data with known mean 5.0, then push
    # uniformly chosen draws through the generative pass; the predictive mean
    # must recover the truth
    rng = make_rng(21)
    data = np.array([sample_gamma(rng, 25.0, 5.0) for _ in range(400)])  # mean 5, sd 1
    space = ParamSpace([ParamDef("mu", (), "positive")])

    def logpost(v):
        return np.sum(stats.gamma.logpdf(data, 25.0, scale=v["mu"][:, None] / 25.0), axis=-1)

    ensemble = fit(logpost, space, FAST, init={"mu": float(data.mean())})
    mu = ensemble.draws["mu"]
    pick = make_rng(22)
    predictive = [
        sample_gamma(pick, 25.0, 25.0 / mu[int(pick.random() * mu.size)]) for _ in range(4000)
    ]
    assert np.mean(predictive) == pytest.approx(5.0, abs=0.3)
