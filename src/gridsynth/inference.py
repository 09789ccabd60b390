"""Posterior fitting via adaptive random-walk Metropolis-within-Gibbs.

Models declare a :class:`ParamSpace` (named parameters with supports) and a
log-posterior over the constrained values. Sampling happens in unconstrained
coordinates: each support has a bijective transform with a log-Jacobian, so
positivity, unit-interval, simplex, and ordered-positive constraints hold on
every draw by construction.

The sampler is deliberately simple: one Gaussian random-walk block per
parameter group, with per-block step sizes adapted during warm-up by a
Robbins-Monro recursion targeting 0.35 acceptance. Chains run with
independent substreams and are pooled after warm-up and thinning. Split-R-hat
and effective sample size are attached as diagnostics; an R-hat above the
threshold is a warning on the ensemble, never a hard failure.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .distributions import make_rng, substream

__all__ = [
    "InitializationError",
    "ParamDef",
    "ParamSpace",
    "FitConfig",
    "PosteriorEnsemble",
    "Posterior",
    "Hdi",
    "fit",
    "hdi",
    "posterior_predictive",
]

SUPPORTS = ("real", "positive", "unit", "simplex", "ordered_positive")


class InitializationError(RuntimeError):
    """Log-posterior is not finite at the initialization point."""


def _expit(z):
    return 0.5 * (1.0 + np.tanh(0.5 * z))


@dataclass(frozen=True)
class ParamDef:
    """One named parameter: a scalar (shape ``()``) or a vector (shape ``(n,)``)."""

    name: str
    shape: tuple[int, ...] = ()
    support: str = "real"

    def __post_init__(self) -> None:
        if self.support not in SUPPORTS:
            raise ValueError(f"unknown support {self.support!r}")
        if len(self.shape) > 1:
            raise ValueError("only scalar and vector parameters are supported")
        if self.support == "simplex" and (not self.shape or self.shape[0] < 2):
            raise ValueError("simplex parameters need length >= 2")
        if self.support == "ordered_positive" and (not self.shape or self.shape[0] < 1):
            raise ValueError("ordered_positive parameters need length >= 1")

    @property
    def constrained_size(self) -> int:
        return self.shape[0] if self.shape else 1

    @property
    def unconstrained_size(self) -> int:
        if self.support == "simplex":
            return self.shape[0] - 1
        return self.constrained_size


class ParamSpace:
    """Named parameters with supports, packed into one unconstrained vector.

    ``blocks`` optionally groups parameter names that should be proposed
    jointly; ungrouped parameters get their own block.
    """

    def __init__(self, defs: list[ParamDef], blocks: list[list[str]] | None = None):
        names = [d.name for d in defs]
        if len(set(names)) != len(names):
            raise ValueError("duplicate parameter names")
        self.defs = list(defs)
        self._by_name = {d.name: d for d in defs}
        self._offsets: dict[str, tuple[int, int]] = {}
        pos = 0
        for d in defs:
            self._offsets[d.name] = (pos, pos + d.unconstrained_size)
            pos += d.unconstrained_size
        self.dim = pos
        grouped = blocks or []
        seen = {n for g in grouped for n in g}
        for n in seen:
            if n not in self._by_name:
                raise ValueError(f"unknown parameter in blocks: {n!r}")
        self.blocks = [list(g) for g in grouped] + [[n] for n in names if n not in seen]

    def block_indices(self, block: list[str]) -> np.ndarray:
        idx: list[int] = []
        for name in block:
            lo, hi = self._offsets[name]
            idx.extend(range(lo, hi))
        return np.asarray(idx, dtype=int)

    def constrain(self, z: np.ndarray) -> tuple[dict[str, float | np.ndarray], float]:
        """Constrained values of ``z`` and the log-Jacobian of the transform."""
        values: dict[str, float | np.ndarray] = {}
        log_jacobian = 0.0
        for d in self.defs:
            lo, hi = self._offsets[d.name]
            values[d.name], lj = _forward(d, z[lo:hi])
            log_jacobian += lj
        return values, log_jacobian

    def to_unconstrained(self, values: dict[str, float | np.ndarray]) -> np.ndarray:
        z = np.empty(self.dim)
        for d in self.defs:
            lo, hi = self._offsets[d.name]
            z[lo:hi] = _inverse(d, values[d.name])
        return z


def _forward(d: ParamDef, z: np.ndarray) -> tuple[float | np.ndarray, float]:
    if d.support == "real":
        x = z.copy()
    elif d.support == "positive":
        x = np.exp(z)
        return (float(x[0]) if not d.shape else x), float(z.sum())
    elif d.support == "unit":
        x = _expit(z)
        lj = float(np.sum(np.log(x) + np.log1p(-x)))
        return (float(x[0]) if not d.shape else x), lj
    elif d.support == "simplex":
        k = d.shape[0]
        x = np.empty(k)
        stick = 1.0
        lj = 0.0
        for i in range(k - 1):
            v = float(_expit(z[i] - math.log(k - 1 - i)))
            x[i] = stick * v
            lj += math.log(max(stick, 1e-300)) + math.log(max(v, 1e-300)) + math.log(
                max(1.0 - v, 1e-300)
            )
            stick *= 1.0 - v
        x[k - 1] = stick
        return x, lj
    elif d.support == "ordered_positive":
        x = np.cumsum(np.exp(z))
        return x, float(z.sum())
    else:  # pragma: no cover
        raise AssertionError(d.support)
    return (float(x[0]) if not d.shape else x), 0.0


def _inverse(d: ParamDef, value: float | np.ndarray) -> np.ndarray:
    v = np.atleast_1d(np.asarray(value, dtype=float))
    if d.support == "real":
        return v.copy()
    if d.support == "positive":
        if np.any(v <= 0.0):
            raise ValueError(f"{d.name}: positive parameter initialized non-positive")
        return np.log(v)
    if d.support == "unit":
        if np.any((v <= 0.0) | (v >= 1.0)):
            raise ValueError(f"{d.name}: unit parameter initialized outside (0, 1)")
        return np.log(v) - np.log1p(-v)
    if d.support == "simplex":
        k = d.shape[0]
        if abs(float(v.sum()) - 1.0) > 1e-8 or np.any(v <= 0.0):
            raise ValueError(f"{d.name}: simplex init must be positive and sum to 1")
        z = np.empty(k - 1)
        stick = 1.0
        for i in range(k - 1):
            frac = float(v[i] / stick)
            frac = min(max(frac, 1e-12), 1.0 - 1e-12)
            z[i] = math.log(frac / (1.0 - frac)) + math.log(k - 1 - i)
            stick *= 1.0 - frac
        return z
    if d.support == "ordered_positive":
        diffs = np.diff(np.concatenate(([0.0], v)))
        if np.any(diffs <= 0.0):
            raise ValueError(f"{d.name}: ordered_positive init must be strictly increasing > 0")
        return np.log(diffs)
    raise AssertionError(d.support)  # pragma: no cover


@dataclass
class FitConfig:
    chains: int = 4
    warmup: int = 2000
    draws: int = 2000
    thin: int = 4
    target_accept: float = 0.35
    initial_step: float = 0.5
    init_jitter: float = 0.1
    rhat_threshold: float = 1.05
    seed: int = 0

    def __post_init__(self) -> None:
        if self.chains < 1 or self.warmup < 0 or self.draws < 1 or self.thin < 1:
            raise ValueError("invalid fit configuration")


@dataclass(frozen=True)
class Hdi:
    lower: float
    upper: float
    mass: float = 0.94


@dataclass
class PosteriorEnsemble:
    """Pooled post-warm-up draws plus sampler diagnostics."""

    draws: dict[str, np.ndarray]
    diagnostics: dict = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)

    @property
    def size(self) -> int:
        return next(iter(self.draws.values())).shape[0]

    def draw(self, index: int) -> dict[str, float | np.ndarray]:
        out: dict[str, float | np.ndarray] = {}
        for name, arr in self.draws.items():
            val = arr[index]
            out[name] = float(val) if val.ndim == 0 else np.array(val)
        return out

    def mean(self, name: str):
        m = self.draws[name].mean(axis=0)
        return float(m) if m.ndim == 0 else m

    def hdi(self, name: str, mass: float = 0.94, component: int | None = None) -> Hdi:
        arr = self.draws[name]
        if arr.ndim > 1:
            if component is None:
                raise ValueError(f"{name} is a vector; pass component=")
            arr = arr[:, component]
        return hdi(arr, mass)


@dataclass
class Posterior:
    """A fitted sub-model: its pooled ensemble, read one draw at a time."""

    ensemble: PosteriorEnsemble

    def draw(self, index: int) -> dict[str, float | np.ndarray]:
        return self.ensemble.draw(index)


def fit(
    log_posterior,
    space: ParamSpace,
    config: FitConfig | None = None,
    init: dict[str, float | np.ndarray] | None = None,
) -> PosteriorEnsemble:
    """Sample the posterior of ``log_posterior`` over ``space``.

    ``log_posterior`` receives a dict of constrained parameter values and
    returns a float (``-inf`` allowed away from the init point); a proposal
    whose constrained values overflow is rejected without calling it. At most
    one ``UserWarning`` per call lists the scalars above the R-hat
    threshold; ``ensemble.warnings`` holds one message per scalar. Chains start
    from ``init`` (or the transform origin) with per-chain jitter; step sizes
    adapt during warm-up only, so the kept draws target the exact posterior.
    """
    config = config or FitConfig()
    init_z = space.to_unconstrained(init) if init else np.zeros(space.dim)

    def target(z: np.ndarray) -> float:
        values, log_jacobian = space.constrain(z)
        # an overflowed transform (exp of a large z) is a rejected proposal;
        # the model never sees it
        if not _all_finite(values):
            return -np.inf
        lp = log_posterior(values)
        if not np.isfinite(lp):
            return -np.inf
        return float(lp) + log_jacobian

    if not np.isfinite(target(init_z)):
        raise InitializationError("log-posterior is not finite at the initialization point")

    block_idx = [space.block_indices(b) for b in space.blocks]
    kept_per_chain = config.draws // config.thin
    chain_draws = np.empty((config.chains, kept_per_chain, space.dim))
    accept_rates = np.zeros((config.chains, len(block_idx)))

    for chain in range(config.chains):
        rng = substream(config.seed, "mcmc-chain", chain)
        z = init_z.copy()
        if config.init_jitter > 0.0:
            for _ in range(20):
                cand = init_z + config.init_jitter * rng.standard_normal(space.dim)
                if np.isfinite(target(cand)):
                    z = cand
                    break
        lp = target(z)
        log_step = np.array(
            [math.log(config.initial_step / math.sqrt(len(idx))) for idx in block_idx]
        )
        accepted = np.zeros(len(block_idx))
        proposed = np.zeros(len(block_idx))
        # per-block proposal shape, learned from warm-up draws: empirical
        # covariance (Welford) -> Cholesky factor used to correlate proposals
        chol = [np.eye(idx.size) for idx in block_idx]
        w_count = 0
        w_mean = [np.zeros(idx.size) for idx in block_idx]
        w_cov = [np.zeros((idx.size, idx.size)) for idx in block_idx]
        kept = 0
        for it in range(config.warmup + config.draws):
            warm = it < config.warmup
            for bi, idx in enumerate(block_idx):
                step = math.exp(log_step[bi])
                cand = z.copy()
                cand[idx] = z[idx] + step * (chol[bi] @ rng.standard_normal(idx.size))
                cand_lp = target(cand)
                log_ratio = cand_lp - lp
                accept_prob = 1.0 if log_ratio >= 0.0 else math.exp(max(log_ratio, -700.0))
                if rng.random() < accept_prob:
                    z, lp = cand, cand_lp
                if warm:
                    # Robbins-Monro on the log step size, targeting 0.35
                    gain = (it + 10.0) ** -0.6
                    log_step[bi] += gain * (accept_prob - config.target_accept)
                else:
                    proposed[bi] += 1.0
                    accepted[bi] += accept_prob
            if warm:
                w_count += 1
                for bi, idx in enumerate(block_idx):
                    delta = z[idx] - w_mean[bi]
                    w_mean[bi] += delta / w_count
                    w_cov[bi] += np.outer(delta, z[idx] - w_mean[bi])
                if w_count >= 100 and w_count % 50 == 0:
                    for bi, idx in enumerate(block_idx):
                        cov = w_cov[bi] / (w_count - 1)
                        jitter = 1e-8 + 1e-6 * float(np.trace(cov)) / idx.size
                        try:
                            chol[bi] = np.linalg.cholesky(
                                cov + jitter * np.eye(idx.size)
                            )
                        except np.linalg.LinAlgError:
                            pass
            if not warm and (it - config.warmup) % config.thin == config.thin - 1:
                chain_draws[chain, kept] = z
                kept += 1
        accept_rates[chain] = accepted / np.maximum(proposed, 1.0)

    names, pooled, rhat, ess = _summarize_chains(space, chain_draws)
    ensemble = PosteriorEnsemble(draws=pooled)
    ensemble.diagnostics = {
        "acceptance": {
            "-".join(b): float(accept_rates[:, i].mean()) for i, b in enumerate(space.blocks)
        },
        "rhat": {n: float(r) for n, r in zip(names, rhat)},
        "ess": {n: float(e) for n, e in zip(names, ess)},
        "chains": config.chains,
        "kept_draws": int(config.chains * kept_per_chain),
    }
    high = [(n, r) for n, r in zip(names, rhat) if np.isfinite(r) and r > config.rhat_threshold]
    ensemble.warnings = [f"R-hat {r:.3f} above {config.rhat_threshold} for {n}" for n, r in high]
    if high:
        listed = ", ".join(f"{n} ({r:.3f})" for n, r in high)
        warnings.warn(
            f"R-hat above {config.rhat_threshold} for {len(high)} scalars: {listed}",
            stacklevel=2,
        )
    return ensemble


def _all_finite(values: dict[str, float | np.ndarray]) -> bool:
    # math.isfinite for the scalars: np.isfinite costs about as much per call
    # as the transform of a scalar parameter
    return all(
        math.isfinite(v) if isinstance(v, float) else np.isfinite(v).all()
        for v in values.values()
    )


def _summarize_chains(space: ParamSpace, chain_draws: np.ndarray):
    """Constrain all draws, pool them, and compute per-scalar R-hat / ESS."""
    chains, kept, _ = chain_draws.shape
    pooled: dict[str, np.ndarray] = {}
    per_chain: dict[str, np.ndarray] = {}
    for d in space.defs:
        shape = d.shape if d.shape else ()
        per_chain[d.name] = np.empty((chains, kept) + shape)
    for c in range(chains):
        for k in range(kept):
            values, _ = space.constrain(chain_draws[c, k])
            for d in space.defs:
                per_chain[d.name][c, k] = values[d.name]
    names: list[str] = []
    rhats: list[float] = []
    esses: list[float] = []
    for d in space.defs:
        arr = per_chain[d.name]
        pooled[d.name] = arr.reshape((chains * kept,) + arr.shape[2:])
        flat = arr.reshape(chains, kept, -1)
        for j in range(flat.shape[2]):
            label = d.name if flat.shape[2] == 1 else f"{d.name}[{j}]"
            names.append(label)
            rhats.append(_split_rhat(flat[:, :, j]))
            esses.append(_effective_sample_size(flat[:, :, j]))
    return names, pooled, rhats, esses


def _split_rhat(chains: np.ndarray) -> float:
    """Split-R-hat over a (chains, draws) array of one scalar parameter."""
    c, n = chains.shape
    half = n // 2
    if half < 2:
        return float("nan")
    seqs = np.concatenate([chains[:, :half], chains[:, half : 2 * half]], axis=0)
    m, length = seqs.shape
    means = seqs.mean(axis=1)
    variances = seqs.var(axis=1, ddof=1)
    w = variances.mean()
    b = length * means.var(ddof=1)
    if w <= 0.0:
        return 1.0
    var_plus = (length - 1.0) / length * w + b / length
    return float(math.sqrt(var_plus / w))


def _effective_sample_size(chains: np.ndarray) -> float:
    """ESS via chain-averaged autocorrelations with Geyer's initial-positive rule."""
    c, n = chains.shape
    total = c * n
    centered = chains - chains.mean(axis=1, keepdims=True)
    var = centered.var(axis=1).mean()
    if var <= 0.0:
        return float(total)
    max_lag = min(n - 1, 500)
    rho = np.empty(max_lag)
    for lag in range(1, max_lag + 1):
        cov = np.mean(
            [np.dot(centered[i, :-lag], centered[i, lag:]) / n for i in range(c)]
        )
        rho[lag - 1] = cov / var
    tau = 0.0
    for k in range(0, max_lag - 1, 2):
        pair = rho[k] + rho[k + 1]
        if pair < 0.0:
            break
        tau += pair
    ess = total / (1.0 + 2.0 * tau)
    return float(min(max(ess, 1.0), total))


def hdi(draws: np.ndarray, mass: float = 0.94) -> Hdi:
    """Shortest contiguous order-statistics interval holding ``mass`` of draws.

    Returns the first narrowest window when several tie.
    """
    draws = np.asarray(draws, dtype=float).ravel()
    if draws.size < 100:
        raise ValueError(f"need at least 100 draws for an HDI, got {draws.size}")
    if not 0.0 < mass < 1.0:
        raise ValueError(f"mass must be in (0, 1), got {mass}")
    ordered = np.sort(draws)
    window = math.ceil(mass * draws.size)
    widths = ordered[window - 1 :] - ordered[: draws.size - window + 1]
    start = int(np.argmin(widths))
    return Hdi(lower=float(ordered[start]), upper=float(ordered[start + window - 1]), mass=mass)


def posterior_predictive(ensemble: PosteriorEnsemble, generator, n: int, rng) -> list:
    """Run ``generator(draw, rng)`` for ``n`` uniformly chosen posterior draws."""
    out = []
    size = ensemble.size
    for _ in range(int(n)):
        index = int(rng.random() * size)
        out.append(generator(ensemble.draw(index), rng))
    return out
