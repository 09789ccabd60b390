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
pair via the modified Carson earth-return equations at 60 Hz / 100 ohm-m
(both configurable), followed by Kron reduction of a single neutral
conductor. Rows and columns of phases absent from the line's configuration
stay zero. Everything but the self terms depends only on the phase
configuration and the geometry: the conductor positions, the mutual terms,
the earth-return constants and the output cells are computed once per
(configuration, geometry) pair and cached, so a line pays for its GMR, its
self term, the Kron reduction and one scatter.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .distributions import (
    ParameterError,
    _logpdf_dirichlet,
    _logpdf_gamma,
    _logpdf_halfnormal,
    _positive,
    sample_categorical,
    sample_dirichlet,
    sample_gamma,
)
from .inference import FitConfig, ParamDef, ParamSpace, Posterior, PosteriorEnsemble, fit
from .phases import PhaseConfig
from .topology import ZoneAssignment, group_by_zone

__all__ = [
    "MIXTURE_COMPONENTS",
    "LineGeometry",
    "LineParams",
    "sample_line",
    "fit_line_model",
    "carson_primitive",
    "kron_reduce",
    "carson_zabc",
    "attach_zabc",
]

MIXTURE_COMPONENTS = 3


@dataclass(frozen=True)
class LineGeometry:
    """Crossarm spacings plus Carson constants.

    Phases sit at A=(0,0), B=(d_ab,0) and C placed by trilateration from
    d_ac/d_bc (collinear for the default 0.6/0.6/1.2 m spacings). The neutral,
    when enabled, runs ``neutral_offset_m`` above the midpoint of the active
    conductors and has the phase conductor's GMR and resistance.
    """

    d_ab_m: float = 0.6
    d_bc_m: float = 0.6
    d_ac_m: float = 1.2
    frequency_hz: float = 60.0
    earth_resistivity_ohm_m: float = 100.0
    include_neutral: bool = True
    neutral_offset_m: float = 1.2

    def __post_init__(self) -> None:
        spacings = (self.d_ab_m, self.d_bc_m, self.d_ac_m)
        if any(not (s > 0.0) for s in spacings):
            raise ParameterError("conductor spacings must be positive")
        if not (self.frequency_hz > 0.0 and self.earth_resistivity_ohm_m > 0.0):
            raise ParameterError("frequency and earth resistivity must be positive")
        if self.include_neutral and not (self.neutral_offset_m > 0.0):
            raise ParameterError("neutral offset must be positive")
        # triangle feasibility for the phase positions
        a, b, c = sorted(spacings)
        if a + b < c - 1e-12:
            raise ParameterError(f"infeasible spacing triangle {spacings}")

    def phase_positions(self) -> dict[str, tuple[float, float]]:
        xc = (self.d_ab_m**2 + self.d_ac_m**2 - self.d_bc_m**2) / (2.0 * self.d_ab_m)
        yc = math.sqrt(max(self.d_ac_m**2 - xc**2, 0.0))
        return {"A": (0.0, 0.0), "B": (self.d_ab_m, 0.0), "C": (xc, yc)}

    def gmd_m(self) -> float:
        return (self.d_ab_m * self.d_bc_m * self.d_ac_m) ** (1.0 / 3.0)


_DEFAULT_GEOMETRY = LineGeometry()


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
    floats: the component by ``sample_categorical`` on ``w / sum(w)``, then
    its gamma. The random numbers and every bit are those of the same
    arithmetic on the draw's numpy arrays."""
    means = np.asarray(draw[f"{prefix}_means"], dtype=float).tolist()
    cv = float(draw[f"{prefix}_cv"])
    weights = np.asarray(draw[f"{prefix}_weights_z{zone}"], dtype=float).tolist()
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
    if len(weights) >= 8:
        total = float(np.sum(weights))
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
    k = sample_categorical(rng, [w / total for w in weights])
    return sample_gamma(rng, shape, rates[k])


def sample_line(draw, zone: int, rng) -> LineParams:
    """Draw (R1, rho) from the zone's mixtures; the impedance matrix is
    attached separately once the line's phase configuration is known."""
    r1 = _sample_mixture(draw, "r", zone, rng)
    rho = _sample_mixture(draw, "rho", zone, rng)
    return LineParams(r1_ohm_per_km=r1, rho=rho)


def _mixture_space(prefix: str, zone_count: int) -> ParamSpace:
    defs = [
        ParamDef(f"{prefix}_means", (MIXTURE_COMPONENTS,), "ordered_positive"),
        ParamDef(f"{prefix}_cv", (), "positive"),
    ]
    for z in range(1, zone_count + 1):
        defs.append(ParamDef(f"{prefix}_weights_z{z}", (MIXTURE_COMPONENTS,), "simplex"))
    return ParamSpace(defs)


def _mixture_components(prefix: str, grouped: list[np.ndarray]):
    """The terms a mixture's log-posterior and its weights step share, for
    values with a leading chain axis: the weights stacked (chains, zones, K),
    the Gamma shape and rates, and each line's log weight plus component
    log-density, (K, chains, lines)."""
    observed = np.concatenate(grouped)
    zone_of = np.repeat(np.arange(len(grouped)), [g.size for g in grouped])
    names = [f"{prefix}_weights_z{z}" for z in range(1, len(grouped) + 1)]

    def components(v):
        weights = np.stack([v[name] for name in names], axis=-2)
        # components lead from here on, so reductions over them run over the
        # first axis. A weight that underflowed to 0 is off the simplex (-inf
        # in the log-posterior); log 1 stands in for its log so no log(0) runs.
        log_w = np.log(np.where(weights > 0.0, weights, 1.0))
        log_w = np.take(np.moveaxis(log_w, -1, 0), zone_of, axis=-1)  # (K, chains, lines)
        shape, rates = _gamma_shape_rates(v[f"{prefix}_means"], v[f"{prefix}_cv"][:, None])
        # (rows stay contiguous, so each chain's sum over lines runs the same
        # way for any number of chains)
        rates_first = np.ascontiguousarray(rates.T)[:, :, None]
        return weights, shape, rates, log_w + _logpdf_gamma(observed, shape, rates_first)

    return components, names, zone_of


def _mixture_logpost(prefix: str, grouped: list[np.ndarray]):
    """Batched log-posterior of one mixture: values carry a leading chain axis."""
    components, _, _ = _mixture_components(prefix, grouped)

    def logpost(v) -> np.ndarray:
        means = v[f"{prefix}_means"]
        lp = _logpdf_halfnormal(means[:, 0], 1.0)
        lp += _logpdf_halfnormal(np.diff(means, axis=-1), 1.0).sum(axis=-1)
        lp += _logpdf_halfnormal(v[f"{prefix}_cv"], 0.5)
        weights, shape, rates, comp = components(v)
        lp += _logpdf_dirichlet(weights, np.ones(MIXTURE_COMPONENTS)).sum(axis=-1)
        # the floor keeps a line whose components are all -inf at -inf, not nan
        peak = np.maximum(comp.max(axis=0), -1e300)
        lp += (peak + np.log(np.sum(np.exp(comp - peak), axis=0))).sum(axis=-1)
        # one component out of its gamma domain (a mean or the cv at 0 or inf)
        # rules the row out, not just that component
        return np.where(_positive(rates).all(axis=-1) & _positive(shape[:, 0]), lp, -np.inf)

    return logpost


def _mixture_weights_step(prefix: str, grouped: list[np.ndarray]):
    """The exact step of ``fit`` for one mixture's zone weights:
    ``(names, draw)``."""
    components, names, zone_of = _mixture_components(prefix, grouped)
    cells = len(names) * MIXTURE_COMPONENTS

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
        cell = zone_of * MIXTURE_COMPONENTS + picked + cells * np.arange(len(rngs))[:, None]
        counts = np.bincount(cell.ravel(), minlength=len(rngs) * cells)
        counts = counts.reshape(len(rngs), len(names), MIXTURE_COMPONENTS)
        weights = sample_dirichlet(rngs, 1.0 + counts)
        return {name: weights[:, z] for z, name in enumerate(names)}

    return names, draw


def _mixture_init(prefix: str, values: np.ndarray, zone_count: int) -> dict:
    qs = np.quantile(values, [0.15, 0.5, 0.85])
    for i in range(1, MIXTURE_COMPONENTS):
        qs[i] = max(qs[i], qs[i - 1] * 1.05 + 1e-6)
    init = {f"{prefix}_means": qs, f"{prefix}_cv": 0.3}
    for z in range(1, zone_count + 1):
        init[f"{prefix}_weights_z{z}"] = np.full(MIXTURE_COMPONENTS, 1.0 / MIXTURE_COMPONENTS)
    return init


def fit_line_model(
    r1: dict[str, float],
    rho: dict[str, float],
    zones: ZoneAssignment,
    config: FitConfig | None = None,
) -> Posterior:
    """Fit both mixtures (resistance and ratio) over the line observations;
    each mixture's weights are drawn exactly (see the module docstring)."""
    for name, data in (("r1", r1), ("rho", rho)):
        if any(v <= 0.0 for v in data.values()):
            raise ValueError(f"{name} observations must be positive")
    if len(r1) < MIXTURE_COMPONENTS:
        warnings.warn(
            f"fewer observations ({len(r1)}) than mixture components; fit proceeds",
            stacklevel=2,
        )
    z_count = zones.zone_count
    r_grouped = group_by_zone(r1, zones.line_zone, z_count)
    rho_grouped = group_by_zone(rho, zones.line_zone, z_count)
    r_space = _mixture_space("r", z_count)
    rho_space = _mixture_space("rho", z_count)
    r_values = np.concatenate([g for g in r_grouped if g.size]) if r1 else np.array([1.0])
    rho_values = np.concatenate([g for g in rho_grouped if g.size]) if rho else np.array([1.0])

    r_ens = fit(
        _mixture_logpost("r", r_grouped),
        r_space,
        config,
        init=_mixture_init("r", r_values, z_count),
        exact=[_mixture_weights_step("r", r_grouped)],
    )
    rho_ens = fit(
        _mixture_logpost("rho", rho_grouped),
        rho_space,
        config,
        init=_mixture_init("rho", rho_values, z_count),
        exact=[_mixture_weights_step("rho", rho_grouped)],
    )
    merged = PosteriorEnsemble(
        draws={**r_ens.draws, **rho_ens.draws},
        diagnostics={"r": r_ens.diagnostics, "rho": rho_ens.diagnostics},
        warnings=r_ens.warnings + rho_ens.warnings,
    )
    return Posterior(merged)


# ---------------------------------------------------------------------------
# Carson impedance build


def _earth_return(frequency_hz: float, earth_resistivity_ohm_m: float) -> tuple[float, ...]:
    """The modified Carson constants: the earth-return resistance term
    pi^2 f 1e-4, the reactance coefficient 4 pi f 1e-4 and the equivalent
    earth-return depth D_e = 658.368 sqrt(rho_e / f) m."""
    p_term = math.pi**2 * frequency_hz * 1e-4
    q_coef = 4.0 * math.pi * frequency_hz * 1e-4
    depth = 658.368 * math.sqrt(earth_resistivity_ohm_m / frequency_hz)
    return p_term, q_coef, depth


def _self_term(r_ac_ohm_per_km: float, gmr_m: float, p_term: float, q_coef: float, depth: float):
    return r_ac_ohm_per_km + p_term + 1j * q_coef * math.log(depth / gmr_m)


def carson_primitive(
    positions: list[tuple[float, float]],
    gmr_m: float,
    r_ac_ohm_per_km: float,
    frequency_hz: float,
    earth_resistivity_ohm_m: float,
) -> np.ndarray:
    """Primitive impedance matrix (ohm/km) from the modified Carson equations,
    for conductors that all have GMR ``gmr_m`` and AC resistance
    ``r_ac_ohm_per_km``.

    Self terms: r + pi^2 f 1e-4 + j 4pi f 1e-4 ln(D_e / gmr); mutual terms
    replace gmr with the conductor spacing. D_e = 658.368 sqrt(rho_e / f) m is
    the equivalent earth-return depth.
    """
    if not (gmr_m > 0.0 and r_ac_ohm_per_km > 0.0):
        raise ParameterError("conductor gmr and resistance must be positive")
    n = len(positions)
    p_term, q_coef, depth = _earth_return(frequency_hz, earth_resistivity_ohm_m)
    z = np.empty((n, n), dtype=complex)
    for i in range(n):
        z[i, i] = _self_term(r_ac_ohm_per_km, gmr_m, p_term, q_coef, depth)
        for j in range(i):
            dx = positions[i][0] - positions[j][0]
            dy = positions[i][1] - positions[j][1]
            d = math.hypot(dx, dy)
            if d <= 0.0:
                raise ParameterError("coincident conductors")
            z[i, j] = z[j, i] = p_term + 1j * q_coef * math.log(depth / d)
    return z


def kron_reduce(z: np.ndarray, keep: int) -> np.ndarray:
    """Eliminate the trailing rows/columns (grounded neutral) of ``z``."""
    zpp = z[:keep, :keep]
    zpn = z[:keep, keep:]
    znp = z[keep:, :keep]
    znn = z[keep:, keep:]
    if zpn.size == 0:
        return zpp.copy()
    return zpp - zpn @ np.linalg.solve(znn, znp)


@dataclass(frozen=True)
class _CarsonConstants:
    """What a line's Carson build takes from its configuration and geometry."""

    gmd_m: float
    p_term: float
    q_coef: float
    depth_m: float
    primitive: np.ndarray  # the mutual terms; each line writes its self terms
    diagonal: slice  # the self terms in ``primitive.flat``
    keep: int  # active phases, ahead of the neutral
    cells: np.ndarray  # where the reduced matrix goes in the flat 3x3 output


@functools.lru_cache(maxsize=128)
def _carson_constants(config: PhaseConfig, geometry: LineGeometry) -> _CarsonConstants:
    """Every part of a line's Carson build that does not depend on its
    (r1, rho), for one configuration and geometry: the mutual terms between
    the active conductors and the neutral (placed last), the earth-return
    constants and the output cells."""
    phase_pos = geometry.phase_positions()
    positions = [phase_pos[p] for p in config.phase_list]
    if geometry.include_neutral:
        xs = [p[0] for p in positions]
        ys = [p[1] for p in positions]
        positions.append((sum(xs) / len(xs), sum(ys) / len(ys) + geometry.neutral_offset_m))
    frequency, resistivity = geometry.frequency_hz, geometry.earth_resistivity_ohm_m
    # unit placeholders on the diagonal, which each line overwrites
    primitive = carson_primitive(positions, 1.0, 1.0, frequency, resistivity)
    idx = config._phase_indices
    cells = np.array([3 * i + j for i in idx for j in idx])
    # every caller shares these arrays: a write is an error
    primitive.flags.writeable = cells.flags.writeable = False
    n = len(positions)
    return _CarsonConstants(
        geometry.gmd_m(),
        *_earth_return(frequency, resistivity),
        primitive,
        slice(None, None, n + 1),
        len(idx),
        cells,
    )


def carson_zabc(
    params: LineParams,
    config: PhaseConfig,
    geometry: LineGeometry = _DEFAULT_GEOMETRY,
) -> np.ndarray:
    """3x3 phase impedance matrix (ohm/km) for the line's configuration.

    The conductor is derived from the sampled pair: the AC resistance is R1
    and the GMR is chosen so a transposed three-phase line reproduces X1
    (gmr = GMD * exp(-x1 / (4 pi f 1e-4))). Only the active conductors (plus
    the neutral) enter the primitive matrix; inactive phases are zero
    rows/columns of the returned container. The terms that depend only on
    ``config`` and ``geometry`` come from a per-pair cache.
    """
    c = _carson_constants(config, geometry)
    r1 = params.r1_ohm_per_km
    gmr = c.gmd_m * math.exp(-params.x1_ohm_per_km / c.q_coef)
    if not (gmr > 0.0 and r1 > 0.0):
        raise ParameterError("conductor gmr and resistance must be positive")
    zprim = c.primitive.copy()
    zprim.flat[c.diagonal] = _self_term(r1, gmr, c.p_term, c.q_coef, c.depth_m)
    out = np.zeros(9, dtype=complex)
    out[c.cells] = kron_reduce(zprim, c.keep).ravel()
    return out.reshape(3, 3)


def attach_zabc(
    params: LineParams,
    config: PhaseConfig,
    geometry: LineGeometry = _DEFAULT_GEOMETRY,
) -> LineParams:
    return LineParams(params.r1_ohm_per_km, params.rho, carson_zabc(params, config, geometry))
