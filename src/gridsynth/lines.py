"""Line parameter model: zone-weighted Gamma mixtures and phase impedance.

Per-km positive-sequence resistance and the reactance ratio rho = X1/R1 each
follow a three-component Gamma mixture. Component means are an ordered
sequence (a base mean plus positive increments) sharing one coefficient of
variation; mixture weights are per-zone simplexes, so the conductor mix can
shift along the feeder. Reactance is X1 = rho * R1 by definition.

The 3x3 phase impedance matrix is built deterministically from the sampled
pair via the modified Carson earth-return equations at 60 Hz / 100 ohm-m
(both configurable), followed by Kron reduction of a single neutral
conductor. Rows and columns of phases absent from the line's configuration
stay zero.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .distributions import (
    GammaParams,
    MixtureParams,
    ParameterError,
    logpdf_dirichlet,
    logpdf_gamma,
    logpdf_halfnormal,
    sample_mixture,
)
from .inference import FitConfig, ParamDef, ParamSpace, Posterior, PosteriorEnsemble, fit
from .phases import PhaseConfig
from .topology import ZoneAssignment, group_by_zone

__all__ = [
    "MIXTURE_COMPONENTS",
    "LineGeometry",
    "ConductorSpec",
    "LineParams",
    "gamma_from_mean_cv",
    "sample_line",
    "fit_line_model",
    "carson_primitive",
    "kron_reduce",
    "carson_zabc",
    "attach_zabc",
    "positive_sequence",
]

MIXTURE_COMPONENTS = 3


def gamma_from_mean_cv(mean: float, cv: float) -> GammaParams:
    """Gamma with the given mean and coefficient of variation:
    shape = 1/cv^2, rate = 1/(cv^2 * mean)."""
    if not (mean > 0.0 and cv > 0.0):
        raise ParameterError(f"mean and cv must be positive, got {mean}, {cv}")
    return GammaParams(shape=1.0 / cv**2, rate=1.0 / (cv**2 * mean))


@dataclass(frozen=True)
class ConductorSpec:
    """Physical conductor data for the impedance build."""

    gmr_m: float
    r_ac_ohm_per_km: float

    def __post_init__(self) -> None:
        if not (self.gmr_m > 0.0 and self.r_ac_ohm_per_km > 0.0):
            raise ParameterError("conductor gmr and resistance must be positive")


@dataclass(frozen=True)
class LineGeometry:
    """Crossarm spacings plus Carson constants.

    Phases sit at A=(0,0), B=(d_ab,0) and C placed by trilateration from
    d_ac/d_bc (collinear for the default 0.6/0.6/1.2 m spacings). The neutral,
    when enabled, runs ``neutral_offset_m`` above the midpoint of the active
    conductors and defaults to the phase conductor's properties.
    """

    d_ab_m: float = 0.6
    d_bc_m: float = 0.6
    d_ac_m: float = 1.2
    frequency_hz: float = 60.0
    earth_resistivity_ohm_m: float = 100.0
    include_neutral: bool = True
    neutral_offset_m: float = 1.2
    neutral_gmr_m: float | None = None
    neutral_r_ac_ohm_per_km: float | None = None

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


def _mixture_from_draw(draw, prefix: str, zone: int) -> MixtureParams:
    means = np.asarray(draw[f"{prefix}_means"], dtype=float)
    cv = float(draw[f"{prefix}_cv"])
    weights = np.asarray(draw[f"{prefix}_weights_z{zone}"], dtype=float)
    components = tuple(gamma_from_mean_cv(float(m), cv) for m in means)
    return MixtureParams(components=components, weights=tuple(weights / weights.sum()))


def sample_line(draw, zone: int, rng) -> LineParams:
    """Draw (R1, rho) from the zone's mixtures; the impedance matrix is
    attached separately once the line's phase configuration is known."""
    r1 = float(sample_mixture(rng, _mixture_from_draw(draw, "r", zone)))
    rho = float(sample_mixture(rng, _mixture_from_draw(draw, "rho", zone)))
    return LineParams(r1_ohm_per_km=r1, rho=rho)


def _mixture_space(prefix: str, zone_count: int) -> ParamSpace:
    defs = [
        ParamDef(f"{prefix}_means", (MIXTURE_COMPONENTS,), "ordered_positive"),
        ParamDef(f"{prefix}_cv", (), "positive"),
    ]
    for z in range(1, zone_count + 1):
        defs.append(ParamDef(f"{prefix}_weights_z{z}", (MIXTURE_COMPONENTS,), "simplex"))
    return ParamSpace(defs)


def _mixture_logpost(prefix: str, grouped: list[np.ndarray]):
    def logpost(v) -> float:
        means = v[f"{prefix}_means"]
        cv = v[f"{prefix}_cv"]
        lp = float(logpdf_halfnormal(means[0], 1.0))
        lp += float(np.sum(logpdf_halfnormal(np.diff(means), 1.0)))
        lp += float(logpdf_halfnormal(cv, 0.5))
        shape = 1.0 / cv**2
        rates = 1.0 / (cv**2 * means)
        for z, values in enumerate(grouped, start=1):
            weights = v[f"{prefix}_weights_z{z}"]
            lp += logpdf_dirichlet(weights, np.ones(MIXTURE_COMPONENTS))
            if values.size == 0:
                continue
            comp = np.stack(
                [np.log(weights[k]) + logpdf_gamma(values, shape, rates[k]) for k in range(MIXTURE_COMPONENTS)]
            )
            peak = comp.max(axis=0)
            lp += float(np.sum(peak + np.log(np.sum(np.exp(comp - peak), axis=0))))
        return lp

    return logpost


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
    """Fit both mixtures (resistance and ratio) over the line observations."""
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
        _mixture_logpost("r", r_grouped), r_space, config, init=_mixture_init("r", r_values, z_count)
    )
    rho_ens = fit(
        _mixture_logpost("rho", rho_grouped),
        rho_space,
        config,
        init=_mixture_init("rho", rho_values, z_count),
    )
    merged = PosteriorEnsemble(
        draws={**r_ens.draws, **rho_ens.draws},
        diagnostics={"r": r_ens.diagnostics, "rho": rho_ens.diagnostics},
        warnings=r_ens.warnings + rho_ens.warnings,
    )
    return Posterior(merged)


# ---------------------------------------------------------------------------
# Carson impedance build


def carson_primitive(
    positions: list[tuple[float, float]],
    conductors: list[ConductorSpec],
    frequency_hz: float,
    earth_resistivity_ohm_m: float,
) -> np.ndarray:
    """Primitive impedance matrix (ohm/km) from the modified Carson equations.

    Self terms: r_i + pi^2 f 1e-4 + j 4pi f 1e-4 ln(D_e / gmr_i); mutual terms
    replace gmr with the conductor spacing. D_e = 658.368 sqrt(rho_e / f) m is
    the equivalent earth-return depth.
    """
    n = len(positions)
    if n != len(conductors):
        raise ParameterError("positions and conductors must align")
    p_term = math.pi**2 * frequency_hz * 1e-4
    q_coef = 4.0 * math.pi * frequency_hz * 1e-4
    depth = 658.368 * math.sqrt(earth_resistivity_ohm_m / frequency_hz)
    z = np.empty((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            if i == j:
                z[i, j] = (
                    conductors[i].r_ac_ohm_per_km
                    + p_term
                    + 1j * q_coef * math.log(depth / conductors[i].gmr_m)
                )
            else:
                dx = positions[i][0] - positions[j][0]
                dy = positions[i][1] - positions[j][1]
                d = math.hypot(dx, dy)
                if d <= 0.0:
                    raise ParameterError("coincident conductors")
                z[i, j] = p_term + 1j * q_coef * math.log(depth / d)
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


def carson_zabc(
    params: LineParams,
    config: PhaseConfig,
    geometry: LineGeometry | None = None,
    conductor: ConductorSpec | None = None,
) -> np.ndarray:
    """3x3 phase impedance matrix (ohm/km) for the line's configuration.

    When ``conductor`` is omitted it is derived from the sampled pair: the AC
    resistance is R1 and the GMR is chosen so a transposed three-phase line
    reproduces X1 (gmr = GMD * exp(-x1 / (4 pi f 1e-4))). Only the active
    conductors (plus the neutral) enter the primitive matrix; inactive phases
    are zero rows/columns of the returned container.
    """
    geometry = geometry or LineGeometry()
    if conductor is None:
        q_coef = 4.0 * math.pi * geometry.frequency_hz * 1e-4
        gmr = geometry.gmd_m() * math.exp(-params.x1_ohm_per_km / q_coef)
        conductor = ConductorSpec(gmr_m=gmr, r_ac_ohm_per_km=params.r1_ohm_per_km)
    phase_pos = geometry.phase_positions()
    active = config.phase_list
    positions = [phase_pos[p] for p in active]
    conductors = [conductor] * len(active)
    if geometry.include_neutral:
        xs = [p[0] for p in positions]
        ys = [p[1] for p in positions]
        positions.append((sum(xs) / len(xs), sum(ys) / len(ys) + geometry.neutral_offset_m))
        conductors.append(
            ConductorSpec(
                gmr_m=geometry.neutral_gmr_m or conductor.gmr_m,
                r_ac_ohm_per_km=geometry.neutral_r_ac_ohm_per_km or conductor.r_ac_ohm_per_km,
            )
        )
    zprim = carson_primitive(
        positions, conductors, geometry.frequency_hz, geometry.earth_resistivity_ohm_m
    )
    zred = kron_reduce(zprim, len(active))
    out = np.zeros((3, 3), dtype=complex)
    idx = [ord(p) - ord("A") for p in active]
    for i, gi in enumerate(idx):
        for j, gj in enumerate(idx):
            out[gi, gj] = zred[i, j]
    return out


def attach_zabc(
    params: LineParams,
    config: PhaseConfig,
    geometry: LineGeometry | None = None,
    conductor: ConductorSpec | None = None,
) -> LineParams:
    return replace(params, z_abc=carson_zabc(params, config, geometry, conductor))


def positive_sequence(z_abc: np.ndarray) -> complex:
    """Positive-sequence impedance of a (transposed) three-phase matrix:
    mean self minus mean mutual."""
    z = np.asarray(z_abc)
    z_self = np.trace(z) / 3.0
    z_mutual = (z.sum() - np.trace(z)) / 6.0
    return complex(z_self - z_mutual)
