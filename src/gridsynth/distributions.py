"""Random-variate samplers and log-densities for the generator's model families.

Every sampler draws from a ``numpy.random.Generator`` seeded through the
counter-based Philox bit generator, so identical seeds reproduce identical
streams on any platform. Substreams for independent workers are derived from
``(seed, *path)`` labels, never by jumping a shared stream.

Each sampler has the one calling convention its callers use. The per-item
samplers (gamma, Weibull, negative binomial, truncated normal) take one
generator and return one value, as the generator draws each bus and line
attribute. The per-chain samplers (Dirichlet, Beta) take one generator per
entry of the parameters' first axis, as the fits' exact steps draw every
chain in one call.

Each log-density kernel is its formula on the support; its callers keep
every argument there (see the kernels' section). A categorical pick has no
sampler of its own: the callers draw one uniform each and place it on the
running totals of ``_cumulative``, which holds the checks.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
from numpy.random import Generator, Philox, SeedSequence
from scipy.special import gammaln, log_ndtr, ndtr, xlogy

__all__ = [
    "ParameterError",
    "make_rng",
    "substream",
    "sample_gamma",
    "sample_weibull",
    "sample_beta",
    "sample_dirichlet",
    "sample_negbinomial",
    "sample_truncnormal",
]

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_LOG_SQRT_2_OVER_PI = 0.5 * math.log(2.0 / math.pi)


class ParameterError(ValueError):
    """Raised when a distribution is given an invalid parameter."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ParameterError(message)


def _positive(value):
    """Elementwise: finite and positive (NaN is neither)."""
    return (value > 0.0) & (value < math.inf)


def _require_positive(value, message: str) -> None:
    """Raise ``ParameterError(message.format(value))`` unless ``value``, a
    float or an array, is finite and positive everywhere (NaN is neither)."""
    if isinstance(value, float):
        ok = 0.0 < value < math.inf
    else:
        ok = bool(_positive(np.asarray(value, dtype=float)).all())
    if not ok:
        raise ParameterError(message.format(value))


# ---------------------------------------------------------------------------
# RNG plumbing


def make_rng(seed: int) -> Generator:
    """Return a counter-based generator for the given 64-bit seed."""
    return Generator(Philox(SeedSequence(int(seed) & 0xFFFFFFFFFFFFFFFF)))


def substream(seed: int, *path: object) -> Generator:
    """Derive an independent generator for ``(seed, *path)``.

    Path components (e.g. a sample index and a component name) are hashed
    with SHA-256 so the derivation is stable across processes and platforms.
    """
    tokens = [int(seed) & 0xFFFFFFFFFFFFFFFF]
    for part in path:
        digest = hashlib.sha256(repr(part).encode("utf-8")).digest()
        tokens.append(int.from_bytes(digest[:8], "big"))
    return Generator(Philox(SeedSequence(tokens)))


# ---------------------------------------------------------------------------
# Samplers


def sample_gamma(rng: Generator, shape: float, rate: float) -> float:
    """One Gamma(shape, rate) draw from ``rng``, by the Marsaglia-Tsang
    squeeze.

    Shapes below one are boosted through Gamma(shape + 1) * U^(1/shape).
    """
    _require_positive(shape, "gamma shape must be finite and positive, got {}")
    _require_positive(rate, "gamma rate must be finite and positive, got {}")
    return _gamma_mt_scalar(rng, shape) / rate


def _gamma_mt_scalar(rng: Generator, alpha: float) -> float:
    if alpha < 1.0:
        u = 1.0 - rng.random()  # (0, 1]
        return _gamma_mt_scalar(rng, alpha + 1.0) * u ** (1.0 / alpha)
    d = alpha - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    while True:
        x = rng.standard_normal()
        v = 1.0 + c * x
        if v <= 0.0:
            continue
        v = v * v * v
        u = rng.random()
        if u < 1.0 - 0.0331 * x * x * x * x:
            return d * v
        if u > 0.0 and math.log(u) < 0.5 * x * x + d * (1.0 - v + math.log(v)):
            return d * v


def _gamma_mt_batch(rngs, alpha: np.ndarray) -> np.ndarray:
    """Gamma(alpha, 1) draws for a ``(len(rngs), n)`` array of shapes.

    Row ``r`` is drawn only from ``rngs[r]``, and in the same order whatever
    the other rows do: first the uniforms that boost its entries below 1, one
    per boosted entry, then in each squeeze round one normal and one uniform
    per entry still pending.
    """
    n = alpha.shape[1]
    small = alpha < 1.0
    boost = None
    if small.any():
        u = np.concatenate(_each(rngs, "random", small.sum(axis=1)))
        boost = np.ones(small.shape)
        boost[small] = (1.0 - u) ** (1.0 / alpha[small])
        alpha = np.where(small, alpha + 1.0, alpha)
    d = (alpha - 1.0 / 3.0).ravel()
    c = 1.0 / np.sqrt(9.0 * d)
    out = np.empty(small.shape)
    pending = np.arange(d.size)
    while pending.size:
        counts = np.bincount(pending // n, minlength=len(rngs))
        x = np.concatenate(_each(rngs, "standard_normal", counts))
        u = np.concatenate(_each(rngs, "random", counts))
        v = 1.0 + c * x
        positive = v > 0.0
        v3 = np.where(positive, v, 1.0) ** 3
        squeeze = u < 1.0 - 0.0331 * x**4
        with np.errstate(divide="ignore"):
            log_test = np.log(u) < 0.5 * x * x + d * (1.0 - v3 + np.log(v3))
        accept = positive & (squeeze | log_test)
        out.flat[pending[accept]] = d[accept] * v3[accept]
        reject = ~accept
        pending, d, c = pending[reject], d[reject], c[reject]
    if boost is not None:
        out *= boost
    return out


def _each(rngs, method: str, counts) -> list[np.ndarray]:
    """``counts[r]`` variates from each ``rngs[r]``; a generator with none to
    draw is not called."""
    return [getattr(rng, method)(m) for rng, m in zip(rngs, counts.tolist()) if m]


def sample_weibull(rng: Generator, shape: float, scale: float) -> float:
    """One Weibull draw from ``rng``, by inverse CDF; ``shape=1`` reduces to
    Exponential(scale)."""
    _require(
        0.0 < shape < math.inf and 0.0 < scale < math.inf,
        "weibull needs finite positive shape and scale",
    )
    u = 1.0 - rng.random()  # (0, 1]
    return scale * (-np.log(u)) ** (1.0 / shape)


def sample_beta(rngs, a, b) -> np.ndarray:
    """Beta(a, b) draws, one generator per entry of the first axis: the
    first coordinate of :func:`sample_dirichlet` on ``(a, b)``. ``a`` and
    ``b`` broadcast; entry ``c`` of their first axis comes only from
    ``rngs[c]``."""
    _require_positive(a, "beta needs positive shape parameters")
    _require_positive(b, "beta needs positive shape parameters")
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    return sample_dirichlet(rngs, np.stack([a, b], axis=-1))[..., 0]


def sample_dirichlet(rngs, concentration) -> np.ndarray:
    """Dirichlet draws over the last axis of ``concentration``, one
    generator per entry of its first axis.

    The independent streams of a fit's chains draw in one call: entry ``c``
    of the first axis comes only from ``rngs[c]``, exactly as
    ``sample_dirichlet([rngs[c]], concentration[c:c + 1])`` would draw it.
    A vector whose gamma variates all underflow to 0 (every concentration
    tiny) comes back NaN.
    """
    conc = np.asarray(concentration, dtype=float)
    _require(
        conc.ndim >= 2 and conc.size >= 1,
        "dirichlet concentration must hold a vector per generator",
    )
    _require_positive(conc, "dirichlet concentration entries must be positive")
    _require(conc.shape[0] == len(rngs), "one generator per row of the parameters")
    g = _gamma_mt_batch(rngs, conc.reshape(len(rngs), -1)).reshape(conc.shape)
    with np.errstate(invalid="ignore"):
        return g / g.sum(axis=-1, keepdims=True)


def _cumulative(p) -> list[float]:
    """Running totals of a sequence of probabilities (need not be
    normalized), for ``bisect_right(cum, u * cum[-1])`` with ``u`` one
    uniform: the one categorical pick, which ``phases.allocate`` and the line
    mixtures both make. Plain Python: on the short vectors drawn one at a
    time, numpy's per-call cost would dominate."""
    cum = []
    total = 0.0
    for value in p:
        if not value >= 0.0:
            raise ParameterError("categorical probabilities must be nonnegative")
        total += value
        cum.append(total)
    _require(total > 0.0, "categorical probabilities must not all be zero")
    _require(total < math.inf, "categorical probabilities must have a finite total")
    return cum


def sample_negbinomial(rng: Generator, mu: float, alpha: float) -> int:
    """One Negative Binomial draw from ``rng``, with mean ``mu`` and variance
    ``mu + mu^2/alpha``.

    Drawn as a Gamma-Poisson mixture: lambda ~ Gamma(alpha, alpha/mu),
    count ~ Poisson(lambda).
    """
    _require(
        0.0 < mu < math.inf and 0.0 < alpha < math.inf,
        "negbinomial needs finite positive mean and dispersion",
    )
    return int(rng.poisson(sample_gamma(rng, alpha, alpha / mu)))


# When at least this much of the parent normal lies above the bound, plain
# rejection is used; otherwise Robert's one-sided exponential proposal.
_TRUNCNORM_REJECTION_MIN_ACCEPT = 0.1
# Proposals drawn per round, under either scheme: at an acceptance of 0.1 or
# more, all 64 miss with probability at most 0.9**64, about 1e-3.
_TRUNCNORM_BATCH = 64


def sample_truncnormal(rng: Generator, mu: float, sigma: float, lower: float) -> float:
    """One draw from ``rng`` of Normal(mu, sigma^2) conditioned on being >=
    lower: the first accepted proposal of plain rejection, or of Robert's
    (1995) shifted-exponential proposal with the optimal rate when less than
    ``_TRUNCNORM_REJECTION_MIN_ACCEPT`` of the normal lies above the bound.

    ``mu`` and ``sigma`` must be finite and ``lower`` not NaN; a ``lower`` of
    -inf leaves the normal untruncated. ``sigma=0`` is accepted as the
    degenerate point mass at ``mu`` (which must then satisfy the bound). A
    bound so far above the mean that the rate of Robert's proposal overflows
    (about 1e154 standard deviations) is rejected: no draw could be accepted.
    """
    mu, sigma, lower = float(mu), float(sigma), float(lower)
    _require(math.isfinite(mu), "truncnormal needs a finite mean")
    _require(0.0 <= sigma < math.inf, "truncnormal needs a finite nonnegative scale")
    _require(not math.isnan(lower), "truncnormal needs a bound, got NaN")
    if sigma == 0.0:
        _require(mu >= lower, "degenerate truncnormal needs mu >= lower")
        return mu
    a = (lower - mu) / sigma
    if ndtr(-a) >= _TRUNCNORM_REJECTION_MIN_ACCEPT:
        while True:
            z = rng.standard_normal(_TRUNCNORM_BATCH)
            z = z[z >= a]
            if z.size:
                return float(mu + sigma * z[0])
    rate = 0.5 * (a + math.sqrt(a * a + 4.0))  # inf once a * a overflows
    _require(
        rate < math.inf, "truncnormal bound too far above the mean: the proposal rate overflows"
    )
    while True:
        z = a - np.log(1.0 - rng.random(_TRUNCNORM_BATCH)) / rate  # 1 - U in (0, 1]
        z = z[rng.random(_TRUNCNORM_BATCH) <= np.exp(-0.5 * (z - rate) ** 2)]
        if z.size:
            return float(mu + sigma * z[0])


# ---------------------------------------------------------------------------
# Log-densities
#
# Each family the models score has one kernel (``_logpdf_*``) holding its
# formula, bound once per fit to the arguments that stay fixed for the fit (a
# prior's parameters, the observations): ``_logpdf_halfnormal(sigma)`` returns
# the function of ``x`` that every log-posterior call runs. Binding computes
# what depends on the fixed arguments alone (normalizers, the logs of the
# observations), so no call repeats it. Fixed parameters are scalars, or one
# vector for the Dirichlet. A kernel is its formula on the support and tests
# no argument: ``inference.fit`` hands a model only values inside each
# parameter's open support, the ``fit_*`` functions reject observations
# outside a density's support before binding, and the models bind only
# parameters inside their domains. Where a model derives a parameter (the
# line mixtures' Gamma rates), it masks the rows whose derived value leaves
# the domain. Any non-finite term rejects its row in ``fit``. The caller
# silences numpy's floating-point warnings, when it binds as when it calls.
# The kernels are private: the model log-posteriors are their only callers.


def _logpdf_gamma(x):
    """Gamma(shape, rate) at the observations ``x``, as a function of
    ``(shape, rate)``; ``log(x)`` is taken once."""
    x = np.asarray(x, dtype=float)
    log_x = np.log(x)

    def logpdf(shape, rate):
        return shape * np.log(rate) - gammaln(shape) + (shape - 1.0) * log_x - rate * x

    return logpdf


def _logpdf_weibull(x):
    """Weibull(shape, scale) at the observations ``x``, as a function of
    ``(shape, scale)``."""
    x = np.asarray(x, dtype=float)

    def logpdf(shape, scale):
        t = x / scale
        return np.log(shape / scale) + (shape - 1.0) * np.log(t) - t**shape

    return logpdf


def _logpdf_beta(a: float, b: float):
    """Beta(a, b) as a function of the value."""
    norm = gammaln(a + b) - gammaln(a) - gammaln(b)
    a1, b1 = a - 1.0, b - 1.0
    return lambda x: a1 * np.log(x) + b1 * np.log1p(-x) + norm


def _logpdf_dirichlet(concentration):
    """Dirichlet(concentration) as a function of the value, over its last
    axis. At concentration 1 the density is its normalizer."""
    concentration = np.asarray(concentration, dtype=float)
    norm = gammaln(concentration.sum(axis=-1)) - gammaln(concentration).sum(axis=-1)
    power = concentration - 1.0
    if not power.any():
        # xlogy(0, x) is +0 on the simplex, so the body is norm + 0
        constant = norm + 0.0
        return lambda x: np.full(np.shape(x)[:-1], constant)
    return lambda x: norm + xlogy(power, x).sum(axis=-1)


def _logpmf_dirichlet_categorical(counts):
    """Log-probability of a sequence of categorical outcomes with ``counts``
    per category, its probabilities summed out over Dirichlet(concentration),
    over the last axis, as a function of the concentration: ``gammaln(A) -
    gammaln(A + N) + sum(gammaln(a + n) - gammaln(a))`` with ``A`` and ``N``
    the totals."""
    counts = np.asarray(counts, dtype=float)
    total_counts = counts.sum(axis=-1)

    def logpmf(concentration):
        total = concentration.sum(axis=-1)
        body = gammaln(total) - gammaln(total + total_counts)
        return body + (gammaln(concentration + counts) - gammaln(concentration)).sum(axis=-1)

    return logpmf


def _logpdf_halfnormal(sigma: float):
    """HalfNormal(sigma) as a function of the value."""
    norm = _LOG_SQRT_2_OVER_PI - np.log(sigma)
    return lambda x: norm - 0.5 * (x / sigma) ** 2


def _logpmf_negbinomial(k, group):
    """Negative Binomial at the counts ``k``, count ``i`` with mean ``mu[...,
    group[i]]`` and the dispersion ``alpha`` shared, as a function of ``(mu,
    alpha)``: one score per count, ``(..., counts)``.

    Counts repeat, so ``gammaln(k + alpha)`` is taken once per distinct count
    and gathered, and the log ratios once per group and gathered; every score
    has the bits of the formula taken count by count."""
    k = np.asarray(k, dtype=float)
    group = np.asarray(group, dtype=int)
    distinct, index = np.unique(k, return_inverse=True)
    log_k_factorial = gammaln(k + 1.0)

    def logpmf(mu, alpha):
        alpha = np.asarray(alpha)[..., None]
        total = alpha + mu
        body = np.take(gammaln(distinct + alpha), index, axis=-1) - gammaln(alpha)
        body -= log_k_factorial
        body += np.take(alpha * np.log(alpha / total), group, axis=-1)
        body += k * np.take(np.log(mu / total), group, axis=-1)
        return body

    return logpmf


def _truncnormal_stats(x) -> np.ndarray:
    """Sufficient statistics of the observations along the first axis of
    ``x`` for :func:`_logpdf_truncnormal_stats`: rows ``(n, anchor, offset,
    ss)``, one column per trailing entry of ``x``.

    The mean is held as ``anchor + offset``, ``anchor`` being the first
    observation, so that ``mean - mu`` keeps its digits when the data sit far
    from 0 compared with their spread (a mean of 1e4 rounds to within 1e-12,
    a relative error of 1e-9 against a spread of 1e-3); ``ss`` is the sum of
    squares about that mean.
    """
    x = np.asarray(x, dtype=float)
    anchor = x[0]
    shifted = x - anchor
    offset = shifted.mean(axis=0)
    ss = ((shifted - offset) ** 2).sum(axis=0)
    return np.stack([np.full(anchor.shape, float(x.shape[0])), anchor, offset, ss])


def _logpdf_truncnormal_stats(stats, lower: float):
    """Log-density of Normal(mu, sigma^2) renormalized to [lower, inf),
    summed over observations at or above ``lower``, bound to their statistics
    ``stats = (n, anchor, offset, ss)`` of :func:`_truncnormal_stats`, as a
    function of ``(mu, sigma)``: ``-(ss + n d^2) / (2 sigma^2) - n (log sigma
    + log sqrt(2 pi) + log Phi((mu - lower) / sigma))`` with ``d = mean -
    mu``. A column needs ``n >= 1``."""
    n, anchor, offset, ss = stats

    def logpdf(mu, sigma):
        d = (anchor - mu) + offset
        log_tail = log_ndtr((mu - lower) / sigma)
        quadratic = -0.5 * (ss + n * d * d) / (sigma * sigma)
        return quadratic - n * (np.log(sigma) + _LOG_SQRT_2PI + log_tail)

    return logpdf
