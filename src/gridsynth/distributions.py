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

Log-densities return ``-inf`` outside the support. A categorical pick has no
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
    _require(mu > 0.0 and alpha > 0.0, "negbinomial needs positive mean and dispersion")
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
# formula. A kernel broadcasts over its arguments, never raises, and scores
# -inf wherever the value is outside the support or a parameter outside its
# domain (finite and positive for every scale and shape); the caller silences
# numpy's floating-point warnings. The kernels are private: the model
# log-posteriors are their only callers.


def _logpdf_gamma(x, shape, rate):
    body = shape * np.log(rate) - gammaln(shape) + (shape - 1.0) * np.log(x) - rate * x
    return np.where(_positive(x) & _positive(shape) & _positive(rate), body, -np.inf)


def _logpdf_weibull(x, shape, scale):
    t = x / scale
    body = np.log(shape / scale) + (shape - 1.0) * np.log(t) - t**shape
    return np.where(_positive(x) & _positive(shape) & _positive(scale), body, -np.inf)


def _logpdf_beta(x, a, b):
    norm = gammaln(a + b) - gammaln(a) - gammaln(b)
    body = (a - 1.0) * np.log(x) + (b - 1.0) * np.log1p(-x) + norm
    return np.where((x > 0.0) & (x < 1.0) & _positive(a) & _positive(b), body, -np.inf)


def _logpdf_dirichlet(x, concentration):
    """Over the last axis of ``x`` and ``concentration``."""
    norm = gammaln(concentration.sum(axis=-1)) - gammaln(concentration).sum(axis=-1)
    body = norm + xlogy(concentration - 1.0, x).sum(axis=-1)
    inside = (x > 0.0).all(axis=-1) & (np.abs(x.sum(axis=-1) - 1.0) <= 1e-9)
    return np.where(inside & _positive(concentration).all(axis=-1), body, -np.inf)


def _logpdf_halfnormal(x, sigma):
    body = _LOG_SQRT_2_OVER_PI - np.log(sigma) - 0.5 * (x / sigma) ** 2
    return np.where((x >= 0.0) & _positive(sigma), body, -np.inf)


def _logpmf_negbinomial(k, mu, alpha):
    integral = (k >= 0.0) & (k < math.inf) & (k == np.floor(k))
    safe = np.where(integral, k, 0.0)
    body = (
        gammaln(safe + alpha)
        - gammaln(alpha)
        - gammaln(safe + 1.0)
        + alpha * np.log(alpha / (alpha + mu))
        + safe * np.log(mu / (alpha + mu))
    )
    return np.where(integral & _positive(mu) & _positive(alpha), body, -np.inf)


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


def _logpdf_truncnormal_stats(stats, mu, sigma, lower):
    """Log-density of Normal(mu, sigma^2) renormalized to [lower, inf),
    summed over observations at or above ``lower``, from their statistics
    ``stats = (n, anchor, offset, ss)`` of :func:`_truncnormal_stats`:
    ``-(ss + n d^2) / (2 sigma^2) - n (log sigma + log sqrt(2 pi) + log
    Phi((mu - lower) / sigma))`` with ``d = mean - mu``. Broadcasts like the
    other kernels; a column needs ``n >= 1``."""
    n, anchor, offset, ss = stats
    d = (anchor - mu) + offset
    log_tail = log_ndtr((mu - lower) / sigma)
    quadratic = -0.5 * (ss + n * d * d) / (sigma * sigma)
    body = quadratic - n * (np.log(sigma) + _LOG_SQRT_2PI + log_tail)
    return np.where(_positive(sigma), body, -np.inf)
