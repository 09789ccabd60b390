"""Line parameter model: zone-weighted Gamma mixtures and phase impedance.

Per-km positive-sequence resistance and the reactance ratio rho = X1/R1 each
follow a three-component Gamma mixture. Component means are an ordered
sequence (a base mean plus positive increments) sharing one coefficient of
variation; mixture weights are per-zone simplexes, so the conductor mix can
shift along the feeder. Reactance is X1 = rho * R1 by definition.

The fit draws each mixture's weights exactly: component indicators for every
line given the current parameters, then each zone's weights from
Dirichlet(1 + indicator counts) (Diebolt & Robert 1994), as one step. The
means and the CV take Metropolis steps against the likelihood with the
indicators summed out.

The 3x3 phase impedance matrix is built deterministically from the sampled
pair via the modified Carson earth-return equations, followed by Kron
reduction of a single neutral conductor. Every line has one fixed geometry:
phases A, B and C collinear on a crossarm at 0.6/0.6/1.2 m spacings, a
neutral 1.2 m above the midpoint of the line's active conductors, 60 Hz and
100 ohm-m earth. Rows and columns of phases absent from the line's
configuration stay zero. Everything but the self terms depends only on the
phase configuration: the mutual terms and the output cells are computed
once per configuration at import, so a line pays for its GMR, its self term,
the Kron reduction and one scatter.
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .distributions import (
    ParameterError,
    _cumulative,
    _logpdf_dirichlet,
    _logpdf_gamma,
    _logpdf_halfnormal,
    _positive,
    sample_dirichlet,
    sample_gamma,
)
from .inference import FitConfig, ParamDef, ParamSpace, Posterior, PosteriorEnsemble, fit
from .phases import CONFIGS, PhaseConfig
from .topology import ZoneAssignment, group_by_zone

__all__ = [
    "LineParams",
    "sample_line",
    "fit_line_model",
    "attach_zabc",
]

_MIXTURE_COMPONENTS = 3

# The one line geometry: phases A, B and C on a crossarm at spacings
# 0.6/0.6/1.2 m, so collinear, and a neutral 1.2 m above the midpoint of the
# active conductors with the phase conductor's GMR and resistance; 60 Hz over
# 100 ohm-m earth. Positions of phases A, B and C, indexed 0-2.
_PHASE_POSITIONS = ((0.0, 0.0), (0.6, 0.0), (1.2, 0.0))
_NEUTRAL_OFFSET_M = 1.2
_FREQUENCY_HZ = 60.0
_EARTH_RESISTIVITY_OHM_M = 100.0
# the modified Carson constants: the earth-return resistance term
# pi^2 f 1e-4, the reactance coefficient 4 pi f 1e-4 and the equivalent
# earth-return depth D_e = 658.368 sqrt(rho_e / f) m; and the phases' GMD
_P_TERM = math.pi**2 * _FREQUENCY_HZ * 1e-4
_Q_COEF = 4.0 * math.pi * _FREQUENCY_HZ * 1e-4
_DEPTH_M = 658.368 * math.sqrt(_EARTH_RESISTIVITY_OHM_M / _FREQUENCY_HZ)
_GMD_M = (0.6 * 0.6 * 1.2) ** (1.0 / 3.0)


@dataclass(frozen=True)
class LineParams:
    """Sampled per-km parameters; ``x1 = rho * r1`` holds exactly."""

    r1_ohm_per_km: float
    rho: float
    z_abc: np.ndarray | None = None

    def __post_init__(self) -> None:
        if not (self.r1_ohm_per_km > 0.0 and self.rho > 0.0):
            raise ParameterError("r1 and rho must be positive")

    @property
    def x1_ohm_per_km(self) -> float:
        return self.rho * self.r1_ohm_per_km


# ---------------------------------------------------------------------------
# Mixture model


def _gamma_shape_rates(means, cv):
    """Gamma components with the given means and one shared coefficient of
    variation: shape = 1/cv^2, rate_k = 1/(cv^2 * mean_k)."""
    return 1.0 / cv**2, 1.0 / (cv**2 * means)


_WEIGHTS_ERROR = "{} weights must be nonnegative with a finite positive sum"


def _sample_mixture(draw, prefix: str, zone: int, rng) -> float:
    """One draw from a zone's mixture, validated and computed on Python
    floats: the component by one uniform on the running totals of
    ``w / sum(w)`` (``_cumulative``, as ``phases.allocate`` picks), then its
    gamma. With fewer than 8 components, as every draw has, the random
    numbers and every bit are those of the same arithmetic on the draw's
    numpy arrays."""
    means = np.asarray(draw[f"{prefix}_means"], dtype=float).tolist()
    cv = float(draw[f"{prefix}_cv"])
    weights = draw.get(f"{prefix}_weights_z{zone}")
    if weights is None:
        raise ParameterError(f"zone {zone} has no {prefix} weights in the draw")
    weights = np.asarray(weights, dtype=float).tolist()
    if len(weights) != len(means):
        raise ParameterError(f"{prefix} weights and means must have equal length")
    for value in (*means, cv):
        if not 0.0 < value < math.inf:
            raise ParameterError(f"{prefix} means and cv must be finite and positive")
    # numpy's sum of fewer than 8 terms: left to right from 0, as here
    total = 0.0
    for w in weights:
        if not w >= 0.0:
            raise ParameterError(_WEIGHTS_ERROR.format(prefix))
        total += w
    if not 0.0 < total < math.inf:
        raise ParameterError(_WEIGHTS_ERROR.format(prefix))
    # _gamma_shape_rates on floats: a cv^2 or a cv^2 * mean outside the float
    # range gives a shape or rate of 0 or inf, which is rejected here
    try:
        cv2 = cv**2
    except OverflowError:
        cv2 = math.inf
    shape = 1.0 / cv2 if cv2 else math.inf
    rates = [1.0 / x if x else math.inf for x in [cv2 * m for m in means]]
    if not (0.0 < shape < math.inf and 0.0 < min(rates) and max(rates) < math.inf):
        raise ParameterError(f"{prefix} means and cv give a gamma shape or rate out of range")
    cum = _cumulative([w / total for w in weights])
    return sample_gamma(rng, shape, rates[bisect_right(cum, rng.random() * cum[-1])])


def sample_line(draw, zone: int, rng) -> LineParams:
    """Draw (R1, rho) from the zone's mixtures; the impedance matrix is
    attached separately once the line's phase configuration is known."""
    r1 = _sample_mixture(draw, "r", zone, rng)
    rho = _sample_mixture(draw, "rho", zone, rng)
    return LineParams(r1_ohm_per_km=r1, rho=rho)


def _mixture_space(prefix: str, zone_count: int) -> ParamSpace:
    defs = [
        ParamDef(f"{prefix}_means", (_MIXTURE_COMPONENTS,), "ordered_positive"),
        ParamDef(f"{prefix}_cv", (), "positive"),
    ]
    for z in range(1, zone_count + 1):
        defs.append(ParamDef(f"{prefix}_weights_z{z}", (_MIXTURE_COMPONENTS,), "simplex"))
    return ParamSpace(defs)


def _mixture(prefix: str, grouped: list[np.ndarray]):
    """One mixture's batched log-posterior and the exact step of ``fit`` for
    its zone weights, ``(logpost, (names, draw))``, over one set of shared
    terms: values carry a leading row axis."""
    observed = np.concatenate(grouped)
    zone_of = np.repeat(np.arange(len(grouped)), [g.size for g in grouped])
    names = [f"{prefix}_weights_z{z}" for z in range(1, len(grouped) + 1)]
    cells = len(names) * _MIXTURE_COMPONENTS

    def components(v):
        """The weights stacked (chains, zones, K), the Gamma shape and rates,
        and each line's log weight plus component log-density, (K, chains,
        lines)."""
        weights = np.stack([v[name] for name in names], axis=-2)
        # components lead from here on, so reductions over them run over the
        # first axis. A weight that underflowed to 0 is off the simplex (-inf
        # in the log-posterior); log 1 stands in for its log so no log(0) runs.
        log_w = np.log(np.where(weights > 0.0, weights, 1.0))
        log_w = np.take(np.moveaxis(log_w, -1, 0), zone_of, axis=-1)  # (K, chains, lines)
        shape, rates = _gamma_shape_rates(v[f"{prefix}_means"], v[f"{prefix}_cv"][:, None])
        # (rows stay contiguous, so each row's sum over lines runs the same
        # way for any number of rows)
        rates_first = np.ascontiguousarray(rates.T)[:, :, None]
        return weights, shape, rates, log_w + _logpdf_gamma(observed, shape, rates_first)

    def logpost(v) -> np.ndarray:
        means = v[f"{prefix}_means"]
        lp = _logpdf_halfnormal(means[:, 0], 1.0)
        lp += _logpdf_halfnormal(np.diff(means, axis=-1), 1.0).sum(axis=-1)
        lp += _logpdf_halfnormal(v[f"{prefix}_cv"], 0.5)
        weights, shape, rates, comp = components(v)
        lp += _logpdf_dirichlet(weights, np.ones(_MIXTURE_COMPONENTS)).sum(axis=-1)
        # the floor keeps a line whose components are all -inf at -inf, not nan
        peak = np.maximum(comp.max(axis=0), -1e300)
        lp += (peak + np.log(np.sum(np.exp(comp - peak), axis=0))).sum(axis=-1)
        # one component out of its gamma domain (a mean or the cv at 0 or inf)
        # rules the row out, not just that component
        return np.where(_positive(rates).all(axis=-1) & _positive(shape[:, 0]), lp, -np.inf)

    def draw(v, rngs) -> dict[str, np.ndarray]:
        # indicators given everything else: each line picks component k with
        # probability proportional to w_zk * Gamma(x | shape, rate_k), by
        # inverse CDF on one uniform per line. The current row scored finite,
        # so every line has a finite component.
        comp = components(v)[3]
        cum = np.cumsum(np.exp(comp - comp.max(axis=0)), axis=0)
        u = np.stack([rng.random(zone_of.size) for rng in rngs]) * cum[-1]
        picked = (u >= cum[:-1]).sum(axis=0)  # (chains, lines)
        # weights given the indicators: Dirichlet(1 + counts) per zone
        cell = zone_of * _MIXTURE_COMPONENTS + picked + cells * np.arange(len(rngs))[:, None]
        counts = np.bincount(cell.ravel(), minlength=len(rngs) * cells)
        counts = counts.reshape(len(rngs), len(names), _MIXTURE_COMPONENTS)
        weights = sample_dirichlet(rngs, 1.0 + counts)
        return {name: weights[:, z] for z, name in enumerate(names)}

    return logpost, (names, draw)


def _mixture_init(prefix: str, grouped: list[np.ndarray]) -> dict:
    """Component means at the data's 15/50/85 % quantiles (1 with no data),
    CV 0.3 and uniform zone weights."""
    values = np.concatenate(grouped)
    qs = np.quantile(values if values.size else np.array([1.0]), [0.15, 0.5, 0.85])
    for i in range(1, _MIXTURE_COMPONENTS):
        qs[i] = max(qs[i], qs[i - 1] * 1.05 + 1e-6)
    init = {f"{prefix}_means": qs, f"{prefix}_cv": 0.3}
    for z in range(1, len(grouped) + 1):
        init[f"{prefix}_weights_z{z}"] = np.full(_MIXTURE_COMPONENTS, 1.0 / _MIXTURE_COMPONENTS)
    return init


def fit_line_model(
    r1: dict[str, float],
    rho: dict[str, float],
    zones: ZoneAssignment,
    config: FitConfig | None = None,
) -> Posterior:
    """Fit both mixtures (resistance and ratio) over the line observations;
    each mixture's weights are drawn exactly (see the module docstring). The
    resistance mixture is fit first."""
    for name, data in (("r1", r1), ("rho", rho)):
        if any(v <= 0.0 for v in data.values()):
            raise ValueError(f"{name} observations must be positive")
    if len(r1) < _MIXTURE_COMPONENTS:
        warnings.warn(
            f"fewer observations ({len(r1)}) than mixture components; fit proceeds",
            stacklevel=2,
        )
    z_count = zones.zone_count
    mixtures = [
        (prefix, group_by_zone(data, zones.line_zone, z_count))
        for prefix, data in (("r", r1), ("rho", rho))
    ]
    draws, diagnostics = {}, {}
    for prefix, grouped in mixtures:
        logpost, weights_step = _mixture(prefix, grouped)
        space = _mixture_space(prefix, z_count)
        init = _mixture_init(prefix, grouped)
        ensemble = fit(logpost, space, config, init=init, exact=[weights_step])
        draws.update(ensemble.draws)
        diagnostics[prefix] = ensemble.diagnostics
    return Posterior(PosteriorEnsemble(draws=draws, diagnostics=diagnostics))


# ---------------------------------------------------------------------------
# Carson impedance build


def _carson_mutual(config: PhaseConfig):
    """What a line's Carson build takes from its configuration alone: the
    mutual terms between the active conductors and the neutral (placed last),
    the number of active phases and the output cells of the flat 3x3 matrix.
    The diagonal holds zeros, which each line overwrites with its self terms."""
    idx = config._phase_indices
    positions = [_PHASE_POSITIONS[i] for i in idx]
    xs = [p[0] for p in positions]
    ys = [p[1] for p in positions]
    positions.append((sum(xs) / len(xs), sum(ys) / len(ys) + _NEUTRAL_OFFSET_M))
    n = len(positions)
    z = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(i):
            d = math.hypot(positions[i][0] - positions[j][0], positions[i][1] - positions[j][1])
            z[i, j] = z[j, i] = _P_TERM + 1j * _Q_COEF * math.log(_DEPTH_M / d)
    cells = np.array([3 * i + j for i in idx for j in idx])
    # every line shares these arrays: a write is an error
    z.flags.writeable = cells.flags.writeable = False
    return z, len(idx), cells


# by configuration index
_CARSON = tuple(map(_carson_mutual, CONFIGS))


def _self_term(params: LineParams) -> complex:
    """Self impedance (ohm/km) of each conductor of the line, the neutral
    included: r + pi^2 f 1e-4 + j 4pi f 1e-4 ln(D_e / gmr). The AC resistance
    is R1 and the GMR is chosen so a transposed three-phase line reproduces
    X1 (gmr = GMD * exp(-x1 / (4 pi f 1e-4)))."""
    r1 = params.r1_ohm_per_km
    gmr = _GMD_M * math.exp(-params.x1_ohm_per_km / _Q_COEF)
    if not (gmr > 0.0 and r1 > 0.0):
        raise ParameterError("conductor gmr and resistance must be positive")
    return r1 + _P_TERM + 1j * _Q_COEF * math.log(_DEPTH_M / gmr)


def _carson_zabc(params: LineParams, config: PhaseConfig) -> np.ndarray:
    """3x3 phase impedance matrix (ohm/km) for the line's configuration.

    Only the active conductors (plus the neutral) enter the primitive matrix,
    each with the self term ``_self_term`` derives from the sampled pair;
    inactive phases are zero rows/columns of the returned container. The
    neutral is Kron-reduced: Z_pp - Z_pn Z_nn^-1 Z_np.
    """
    mutual, keep, cells = _CARSON[config.value]
    z = mutual.copy()
    z.flat[:: keep + 2] = _self_term(params)
    reduced = z[:keep, :keep] - z[:keep, keep:] @ np.linalg.solve(z[keep:, keep:], z[keep:, :keep])
    out = np.zeros(9, dtype=complex)
    out[cells] = reduced.ravel()
    return out.reshape(3, 3)


def attach_zabc(params: LineParams, config: PhaseConfig) -> LineParams:
    return LineParams(params.r1_ohm_per_km, params.rho, _carson_zabc(params, config))
