"""Phase configurations, the subset-consistency constraint, and allocation.

A bus is served by one of seven configurations {A, B, C, AB, BC, CA, ABC}.
The allocation rule is structural: the source is three-phase, branch
(ramification) nodes sample their configuration from zone-conditioned base
probabilities masked to subsets of their parent's phases, and every other bus
copies the nearest upstream ramification node. The subset rule therefore
holds on every line by construction.

Base probabilities are zone-level Dirichlet-Categorical posteriors: a
concentration row per zone with a HalfNormal(1) prior, a probability vector
per zone drawn from it, and a categorical likelihood over the observed bus
configurations.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .distributions import (
    logpdf_dirichlet,
    logpdf_halfnormal,
    sample_categorical,
)
from .inference import FitConfig, ParamDef, ParamSpace, Posterior, fit
from .topology import NetworkTopology, RamificationHierarchy, ZoneAssignment, group_by_zone

__all__ = [
    "PhaseConfig",
    "CONFIGS",
    "PhasePosterior",
    "transition",
    "transition_mask",
    "constrain",
    "fit_phase_model",
    "allocate",
    "consistency_violations",
]


class PhaseConfig(Enum):
    """Seven phase configurations with a fixed index order."""

    A = 0
    B = 1
    C = 2
    AB = 3
    BC = 4
    CA = 5
    ABC = 6

    @property
    def index(self) -> int:
        return self.value

    @property
    def phases(self) -> frozenset[str]:
        return _PHASE_SETS[self]

    @property
    def phase_list(self) -> tuple[str, ...]:
        """Active phases in A, B, C order."""
        return tuple(p for p in "ABC" if p in self.phases)

    @classmethod
    def from_name(cls, name: str) -> "PhaseConfig":
        key = "".join(sorted(name.strip().upper()))
        try:
            return _BY_SORTED_NAME[key]
        except KeyError:
            raise ValueError(f"unknown phase configuration {name!r}") from None


_PHASE_SETS = {
    PhaseConfig.A: frozenset("A"),
    PhaseConfig.B: frozenset("B"),
    PhaseConfig.C: frozenset("C"),
    PhaseConfig.AB: frozenset("AB"),
    PhaseConfig.BC: frozenset("BC"),
    PhaseConfig.CA: frozenset("CA"),
    PhaseConfig.ABC: frozenset("ABC"),
}
_BY_SORTED_NAME = {"".join(sorted(c.phases)): c for c in PhaseConfig}

CONFIGS: tuple[PhaseConfig, ...] = tuple(sorted(PhaseConfig, key=lambda c: c.value))

_TRANSITION = {
    parent: tuple(c for c in CONFIGS if c.phases <= parent.phases) for parent in CONFIGS
}
_TRANSITION_MASK = {
    parent: np.array([c.phases <= parent.phases for c in CONFIGS], dtype=float)
    for parent in CONFIGS
}


def transition(parent: PhaseConfig) -> tuple[PhaseConfig, ...]:
    """Configurations whose phase set is a nonempty subset of the parent's."""
    return _TRANSITION[parent]


def transition_mask(parent: PhaseConfig) -> np.ndarray:
    """0/1 vector over the seven configurations allowed under ``parent``."""
    return _TRANSITION_MASK[parent].copy()


def constrain(
    base: np.ndarray,
    parent: PhaseConfig,
    prohibited: tuple[PhaseConfig, ...] = (),
) -> np.ndarray:
    """Mask ``base`` to the parent's subsets (and any scenario prohibitions),
    then renormalize.

    If the masked mass is exactly zero the result falls back to uniform over
    the allowed set, with a warning; an empty allowed set (over-aggressive
    prohibitions) falls back to the parent's transition set alone.
    """
    base = np.asarray(base, dtype=float)
    if base.shape != (7,):
        raise ValueError("base probabilities must be a length-7 vector")
    if np.any(base < 0.0):
        raise ValueError("base probabilities must be nonnegative")
    mask = _TRANSITION_MASK[parent].copy()
    for config in prohibited:
        mask[config.index] = 0.0
    if mask.sum() == 0.0:
        warnings.warn(
            f"prohibitions leave no allowed configuration under parent {parent.name}; "
            "ignoring prohibitions for this node",
            stacklevel=2,
        )
        mask = _TRANSITION_MASK[parent].copy()
    masked = base * mask
    total = masked.sum()
    if total == 0.0:
        warnings.warn(
            f"base probabilities put zero mass on every configuration allowed under "
            f"parent {parent.name}; falling back to uniform over the allowed set",
            stacklevel=2,
        )
        masked = mask
        total = mask.sum()
    return masked / total


@dataclass
class PhasePosterior(Posterior):
    """Posterior over zone-level concentration rows and base probabilities."""

    zone_count: int

    def base_probs(self, draw: dict) -> np.ndarray:
        """(Z, 7) base-probability matrix for one posterior draw dict."""
        return np.vstack([draw[f"base_z{z}"] for z in range(1, self.zone_count + 1)])

    def posterior_mean_base(self) -> np.ndarray:
        return np.vstack(
            [self.ensemble.mean(f"base_z{z}") for z in range(1, self.zone_count + 1)]
        )


def fit_phase_model(
    observed: dict[str, PhaseConfig],
    zones: ZoneAssignment,
    config: FitConfig | None = None,
) -> PhasePosterior:
    """Fit zone-conditioned base probabilities from observed bus configurations.

    Zones with no observations keep their prior (warning); an empty dataset is
    an error.
    """
    if not observed:
        raise ValueError("no observed phase configurations")
    z_count = zones.zone_count
    indices = group_by_zone(
        {bus: cfg.index for bus, cfg in observed.items()}, zones.bus_zone, z_count
    )
    counts = np.array([np.bincount(g.astype(int), minlength=7) for g in indices], dtype=float)
    empty = [z + 1 for z in range(z_count) if counts[z].sum() == 0]
    if empty:
        warnings.warn(
            f"zones without phase observations fall back to the prior: {empty}",
            stacklevel=2,
        )
    defs: list[ParamDef] = []
    for z in range(1, z_count + 1):
        defs.append(ParamDef(f"conc_z{z}", (7,), "positive"))
        defs.append(ParamDef(f"base_z{z}", (7,), "simplex"))
    space = ParamSpace(defs)

    def logpost(values) -> float:
        lp = 0.0
        for z in range(1, z_count + 1):
            conc = values[f"conc_z{z}"]
            base = values[f"base_z{z}"]
            lp += float(np.sum(logpdf_halfnormal(conc, 1.0)))
            lp += logpdf_dirichlet(base, conc)
            # a probability that underflowed to 0 is off the simplex: stop before np.log(0)
            if lp == -np.inf:
                return lp
            lp += float(np.dot(counts[z - 1], np.log(base)))
        return lp

    init: dict[str, np.ndarray] = {}
    for z in range(1, z_count + 1):
        init[f"conc_z{z}"] = np.ones(7)
        smoothed = counts[z - 1] + 1.0
        init[f"base_z{z}"] = smoothed / smoothed.sum()
    ensemble = fit(logpost, space, config, init=init)
    return PhasePosterior(ensemble=ensemble, zone_count=z_count)


def allocate(
    topology: NetworkTopology,
    hierarchy: RamificationHierarchy,
    zones: ZoneAssignment,
    base: np.ndarray,
    rng,
    prohibited: tuple[PhaseConfig, ...] = (),
) -> dict[str, PhaseConfig]:
    """Draw one subset-consistent allocation from zone base probabilities.

    ``base`` is a (Z, 7) matrix (one posterior draw). The source is
    three-phase; the other ramification nodes are sampled in topological
    order from the constrained categorical, which is computed once per
    (zone, parent configuration), so a fallback warns once per pair. All
    other buses copy their nearest upstream ramification node.
    """
    base = np.asarray(base, dtype=float)
    if base.shape != (zones.zone_count, 7):
        raise ValueError(
            f"base matrix shape {base.shape} does not match zone count {zones.zone_count}"
        )
    phi: dict[str, PhaseConfig] = {topology.source: PhaseConfig.ABC}
    rows: dict[tuple[int, PhaseConfig], np.ndarray] = {}
    for node in hierarchy.ramification_set[1:]:
        key = (zones.bus_zone[node], phi[hierarchy.parent[node]])
        probs = rows.get(key)
        if probs is None:
            probs = rows[key] = constrain(base[key[0] - 1], key[1], prohibited)
        phi[node] = CONFIGS[sample_categorical(rng, probs)]
    for node, ram in hierarchy.nearest_ramification.items():
        phi[node] = phi[ram]
    return phi


def consistency_violations(
    topology: NetworkTopology,
    allocation: dict[str, PhaseConfig],
    distances: dict[str, float],
) -> list[str]:
    """Line ids where the downstream phase set is not a subset of the upstream one.

    The upstream end is the one closer to the source; between equidistant
    ends, the one the shortest-path tree reaches first.
    """
    _, _, order = topology._tree
    rank = {bus: i for i, bus in enumerate(order)}
    bad = []
    for line in topology.lines:
        du, dv = distances[line.from_bus], distances[line.to_bus]
        if du < dv or (du == dv and rank[line.from_bus] < rank[line.to_bus]):
            up, down = line.from_bus, line.to_bus
        else:
            up, down = line.to_bus, line.from_bus
        if not allocation[down].phases <= allocation[up].phases:
            bad.append(line.id)
    return bad
