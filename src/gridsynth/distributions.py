"""Random-variate samplers and log-densities for the generator's model families.

Every sampler draws from a ``numpy.random.Generator`` seeded through the
counter-based Philox bit generator, so identical seeds reproduce identical
streams on any platform. Substreams for independent workers are derived from
``(seed, *path)`` labels, never by jumping a shared stream.

Samplers accept ``size=None`` for a scalar draw or an integer for a vectorized
batch. Log-densities return ``-inf`` outside the support.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox, SeedSequence
from scipy.special import gammaln, log_ndtr, ndtr

__all__ = [
    "ParameterError",
    "GammaParams",
    "MixtureParams",
    "make_rng",
    "substream",
    "sample_gamma",
    "sample_weibull",
    "sample_beta",
    "sample_dirichlet",
    "sample_categorical",
    "sample_negbinomial",
    "sample_truncnormal",
    "sample_mixture",
    "logpdf_normal",
    "logpdf_gamma",
    "logpdf_weibull",
    "logpdf_beta",
    "logpdf_dirichlet",
    "logpdf_halfnormal",
    "logpmf_negbinomial",
    "logpdf_truncnormal",
    "logpdf_mixture",
]

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


class ParameterError(ValueError):
    """Raised when a distribution is given an invalid parameter."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ParameterError(message)


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
# Parameter containers


@dataclass(frozen=True)
class GammaParams:
    """Shape/rate parameterization; mean = shape / rate."""

    shape: float
    rate: float

    def __post_init__(self) -> None:
        _require(
            math.isfinite(self.shape) and self.shape > 0.0,
            f"gamma shape must be finite and positive, got {self.shape}",
        )
        _require(
            math.isfinite(self.rate) and self.rate > 0.0,
            f"gamma rate must be finite and positive, got {self.rate}",
        )

    @property
    def mean(self) -> float:
        return self.shape / self.rate


@dataclass(frozen=True)
class MixtureParams:
    """Finite Gamma mixture with weights on the simplex."""

    components: tuple[GammaParams, ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        _require(len(self.components) >= 1, "mixture needs at least one component")
        _require(
            len(self.weights) == len(self.components),
            "weights and components must have equal length",
        )
        _require(all(w >= 0.0 for w in self.weights), "mixture weights must be nonnegative")
        _require(
            abs(sum(self.weights) - 1.0) < 1e-12,
            f"mixture weights must sum to 1 within 1e-12, got {sum(self.weights)}",
        )


# ---------------------------------------------------------------------------
# Samplers


def sample_gamma(rng: Generator, shape: float, rate: float, size: int | None = None):
    """Gamma draw via the Marsaglia-Tsang squeeze.

    Shapes below one are boosted through Gamma(shape + 1) * U^(1/shape).
    """
    params = GammaParams(shape, rate)
    if size is None:
        return _gamma_mt_scalar(rng, params.shape) / params.rate
    return _gamma_mt_batch(rng, params.shape, int(size)) / params.rate


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


def _gamma_mt_batch(rng: Generator, alpha: float, n: int) -> np.ndarray:
    boost = None
    if alpha < 1.0:
        boost = (1.0 - rng.random(n)) ** (1.0 / alpha)
        alpha = alpha + 1.0
    d = alpha - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    out = np.empty(n)
    pending = np.arange(n)
    while pending.size:
        m = pending.size
        x = rng.standard_normal(m)
        v = 1.0 + c * x
        u = rng.random(m)
        positive = v > 0.0
        v3 = np.where(positive, v, 1.0) ** 3
        squeeze = u < 1.0 - 0.0331 * x**4
        with np.errstate(divide="ignore"):
            log_test = np.log(u) < 0.5 * x * x + d * (1.0 - v3 + np.log(v3))
        accept = positive & (squeeze | log_test)
        out[pending[accept]] = d * v3[accept]
        pending = pending[~accept]
    if boost is not None:
        out *= boost
    return out


def sample_weibull(rng: Generator, shape: float, scale: float, size: int | None = None):
    """Weibull draw by inverse CDF; ``shape=1`` reduces to Exponential(scale)."""
    _require(shape > 0.0 and scale > 0.0, "weibull needs positive shape and scale")
    u = 1.0 - (rng.random() if size is None else rng.random(size))  # (0, 1]
    return scale * (-np.log(u)) ** (1.0 / shape)


def sample_beta(rng: Generator, a: float, b: float, size: int | None = None):
    _require(a > 0.0 and b > 0.0, "beta needs positive shape parameters")
    x = sample_gamma(rng, a, 1.0, size)
    y = sample_gamma(rng, b, 1.0, size)
    return x / (x + y)


def sample_dirichlet(rng: Generator, concentration, size: int | None = None):
    conc = np.asarray(concentration, dtype=float)
    _require(conc.ndim == 1 and conc.size >= 1, "dirichlet concentration must be a vector")
    _require(bool(np.all(conc > 0.0)), "dirichlet concentration entries must be positive")
    if size is None:
        g = np.array([sample_gamma(rng, a, 1.0) for a in conc])
        return g / g.sum()
    g = np.column_stack([sample_gamma(rng, a, 1.0, size) for a in conc])
    return g / g.sum(axis=1, keepdims=True)


def sample_categorical(rng: Generator, probs, size: int | None = None):
    """Index draw proportional to ``probs`` (need not be normalized)."""
    p = np.asarray(probs, dtype=float)
    _require(p.ndim == 1 and p.size >= 1, "categorical needs a probability vector")
    _require(bool(np.all(p >= 0.0)), "categorical probabilities must be nonnegative")
    total = p.sum()
    _require(total > 0.0, "categorical probabilities must not all be zero")
    cum = np.cumsum(p)
    if size is None:
        return int(np.searchsorted(cum, rng.random() * total, side="right"))
    return np.searchsorted(cum, rng.random(size) * total, side="right").astype(np.int64)


def sample_negbinomial(rng: Generator, mu: float, alpha: float, size: int | None = None):
    """Negative Binomial with mean ``mu`` and variance ``mu + mu^2/alpha``.

    Drawn as a Gamma-Poisson mixture: lambda ~ Gamma(alpha, alpha/mu),
    count ~ Poisson(lambda).
    """
    _require(mu > 0.0 and alpha > 0.0, "negbinomial needs positive mean and dispersion")
    lam = sample_gamma(rng, alpha, alpha / mu, size)
    if size is None:
        return int(rng.poisson(lam))
    return rng.poisson(lam).astype(np.int64)


# When at least this much of the parent normal lies above the bound, plain
# rejection is used; otherwise Robert's one-sided exponential proposal.
_TRUNCNORM_REJECTION_MIN_ACCEPT = 0.1


def sample_truncnormal(
    rng: Generator, mu: float, sigma: float, lower: float, size: int | None = None
):
    """Normal(mu, sigma^2) conditioned on being >= lower.

    ``sigma=0`` is accepted as the degenerate point mass at ``mu`` (which must
    then satisfy the bound).
    """
    _require(sigma >= 0.0, "truncnormal needs nonnegative scale")
    if sigma == 0.0:
        _require(mu >= lower, "degenerate truncnormal needs mu >= lower")
        return float(mu) if size is None else np.full(size, float(mu))
    a = (lower - mu) / sigma
    n = 1 if size is None else int(size)
    if ndtr(-a) >= _TRUNCNORM_REJECTION_MIN_ACCEPT:
        z = _truncnorm_reject(rng, a, n)
    else:
        z = _truncnorm_robert(rng, a, n)
    out = mu + sigma * z
    return float(out[0]) if size is None else out


def _truncnorm_reject(rng: Generator, a: float, n: int) -> np.ndarray:
    out = np.empty(n)
    filled = 0
    while filled < n:
        batch = max(64, int(1.5 * (n - filled) / max(ndtr(-a), 1e-3)))
        z = rng.standard_normal(batch)
        z = z[z >= a]
        take = min(z.size, n - filled)
        out[filled : filled + take] = z[:take]
        filled += take
    return out


def _truncnorm_robert(rng: Generator, a: float, n: int) -> np.ndarray:
    # Robert (1995): shifted-exponential proposal with the optimal rate.
    alpha = 0.5 * (a + math.sqrt(a * a + 4.0))
    out = np.empty(n)
    filled = 0
    while filled < n:
        batch = max(64, 2 * (n - filled))
        u1 = 1.0 - rng.random(batch)  # (0, 1]
        z = a - np.log(u1) / alpha
        accept = rng.random(batch) <= np.exp(-0.5 * (z - alpha) ** 2)
        z = z[accept]
        take = min(z.size, n - filled)
        out[filled : filled + take] = z[:take]
        filled += take
    return out


def sample_mixture(rng: Generator, mixture: MixtureParams, size: int | None = None):
    """Draw from a Gamma mixture: pick a component, then sample it."""
    if size is None:
        k = sample_categorical(rng, mixture.weights)
        comp = mixture.components[k]
        return sample_gamma(rng, comp.shape, comp.rate)
    ks = sample_categorical(rng, mixture.weights, size)
    out = np.empty(size)
    for k, comp in enumerate(mixture.components):
        mask = ks == k
        m = int(mask.sum())
        if m:
            out[mask] = sample_gamma(rng, comp.shape, comp.rate, m)
    return out


# ---------------------------------------------------------------------------
# Log-densities


def logpdf_normal(x, mu: float, sigma: float):
    _require(sigma > 0.0, "normal needs positive scale")
    x = np.asarray(x, dtype=float)
    z = (x - mu) / sigma
    out = -0.5 * z * z - math.log(sigma) - _LOG_SQRT_2PI
    return out if out.ndim else float(out)


def logpdf_gamma(x, shape: float, rate: float):
    params = GammaParams(shape, rate)
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        body = (
            params.shape * math.log(params.rate)
            - gammaln(params.shape)
            + (params.shape - 1.0) * np.log(x)
            - params.rate * x
        )
    out = np.where(x > 0.0, body, -np.inf)
    return out if out.ndim else float(out)


def logpdf_weibull(x, shape: float, scale: float):
    _require(shape > 0.0 and scale > 0.0, "weibull needs positive shape and scale")
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = x / scale
        body = math.log(shape / scale) + (shape - 1.0) * np.log(t) - t**shape
    out = np.where(x > 0.0, body, -np.inf)
    return out if out.ndim else float(out)


def logpdf_beta(x, a: float, b: float):
    _require(a > 0.0 and b > 0.0, "beta needs positive shape parameters")
    x = np.asarray(x, dtype=float)
    norm = gammaln(a + b) - gammaln(a) - gammaln(b)
    with np.errstate(divide="ignore", invalid="ignore"):
        body = (a - 1.0) * np.log(x) + (b - 1.0) * np.log1p(-x) + norm
    out = np.where((x > 0.0) & (x < 1.0), body, -np.inf)
    return out if out.ndim else float(out)


def logpdf_dirichlet(x, concentration) -> float:
    conc = np.asarray(concentration, dtype=float)
    _require(bool(np.all(conc > 0.0)), "dirichlet concentration entries must be positive")
    x = np.asarray(x, dtype=float)
    _require(x.shape == conc.shape, "value and concentration shapes differ")
    if np.any(x <= 0.0) or abs(float(x.sum()) - 1.0) > 1e-9:
        return -np.inf
    norm = gammaln(conc.sum()) - gammaln(conc).sum()
    return float(norm + ((conc - 1.0) * np.log(x)).sum())


def logpdf_halfnormal(x, sigma: float):
    _require(sigma > 0.0, "halfnormal needs positive scale")
    x = np.asarray(x, dtype=float)
    body = 0.5 * math.log(2.0 / math.pi) - math.log(sigma) - 0.5 * (x / sigma) ** 2
    out = np.where(x >= 0.0, body, -np.inf)
    return out if out.ndim else float(out)


def logpmf_negbinomial(k, mu: float, alpha: float):
    _require(mu > 0.0 and alpha > 0.0, "negbinomial needs positive mean and dispersion")
    k = np.asarray(k)
    kf = k.astype(float)
    valid = (kf >= 0.0) & (kf == np.floor(kf))
    safe = np.where(valid, kf, 0.0)
    body = (
        gammaln(safe + alpha)
        - gammaln(alpha)
        - gammaln(safe + 1.0)
        + alpha * math.log(alpha / (alpha + mu))
        + safe * math.log(mu / (alpha + mu))
    )
    out = np.where(valid, body, -np.inf)
    return out if out.ndim else float(out)


def logpdf_truncnormal(x, mu: float, sigma: float, lower: float):
    """Density of Normal(mu, sigma^2) renormalized to [lower, inf)."""
    _require(sigma > 0.0, "truncnormal needs positive scale")
    x = np.asarray(x, dtype=float)
    # log of the retained upper-tail mass P(X >= lower)
    log_tail = log_ndtr((mu - lower) / sigma)
    body = logpdf_normal(x, mu, sigma) - log_tail
    out = np.where(x >= lower, body, -np.inf)
    return out if out.ndim else float(out)


def logpdf_mixture(x, mixture: MixtureParams):
    """log sum_k w_k Gamma(x; alpha_k, beta_k), stabilized with log-sum-exp."""
    x = np.asarray(x, dtype=float)
    terms = np.full((len(mixture.components),) + x.shape, -np.inf)
    for k, (w, comp) in enumerate(zip(mixture.weights, mixture.components)):
        if w > 0.0:
            terms[k] = math.log(w) + logpdf_gamma(x, comp.shape, comp.rate)
    peak = np.max(terms, axis=0)
    with np.errstate(invalid="ignore"):
        out = peak + np.log(np.sum(np.exp(terms - peak), axis=0))
    out = np.where(np.isfinite(peak), out, -np.inf)
    return out if out.ndim else float(out)
