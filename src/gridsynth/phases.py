"""Phase configurations, the subset-consistency constraint, and allocation.

A bus is served by one of seven configurations {A, B, C, AB, BC, CA, ABC}.
The allocation rule is structural and walks the shortest-path tree: the
source is three-phase, branch (ramification) nodes sample their configuration
from zone-conditioned base probabilities masked to subsets of their tree
parent's phases, and every other bus copies its tree parent. The subset rule
therefore holds on every line of that tree. On a meshed feeder a line off the
tree joins two buses allocated independently, so it can break the rule;
``consistency_violations`` reports every line that does. One 7x7 table by
configuration index, ``_ALLOWED[parent, child]``, holds the subset rule:
``constrain`` masks by the parent's row and ``consistency_violations`` looks
up each line's (upstream, downstream) pair. One helper, ``_line_ends``,
orders each line's ends for it and for ``generate.Feeder``.

Base probabilities are zone-level Dirichlet-Categorical posteriors: a
concentration row per zone with a HalfNormal(1) prior, a probability vector
per zone drawn from it, and a categorical likelihood over the observed bus
configurations. The fit draws every zone's base row exactly from its full
conditional, Dirichlet(concentration + counts), in one step; only the
concentration rows take Metropolis steps.
"""

from __future__ import annotations

import warnings
from bisect import bisect_right
from enum import Enum
from operator import attrgetter

import numpy as np
from scipy.special import xlogy

from .distributions import (
    _cumulative,
    _logpdf_dirichlet,
    _logpdf_halfnormal,
    sample_dirichlet,
)
from .inference import FitConfig, ParamDef, ParamSpace, Posterior, fit
from .topology import NetworkTopology, RamificationHierarchy, ZoneAssignment, group_by_zone

__all__ = [
    "PhaseConfig",
    "CONFIGS",
    "constrain",
    "fit_phase_model",
    "allocate",
    "consistency_violations",
]


class PhaseConfig(Enum):
    """Seven phase configurations with a fixed index order.

    Each member carries, as plain attributes set once at import, its phase
    set ``phases`` and the positions 0-2 of its active phases in a per-phase
    3-vector, in A, B, C order, ``_phase_indices``: the per-bus and per-line
    samplers read them on every draw.
    """

    A = 0
    B = 1
    C = 2
    AB = 3
    BC = 4
    CA = 5
    ABC = 6

    def __init__(self, value: int) -> None:
        self.phases = frozenset(self.name)
        self._phase_indices = tuple(i for i, p in enumerate("ABC") if p in self.phases)

    @property
    def index(self) -> int:
        return self.value

    @classmethod
    def from_name(cls, name: str) -> "PhaseConfig":
        key = "".join(sorted(name.strip().upper()))
        try:
            return _BY_SORTED_NAME[key]
        except KeyError:
            raise ValueError(f"unknown phase configuration {name!r}") from None


_BY_SORTED_NAME = {"".join(sorted(c.phases)): c for c in PhaseConfig}

CONFIGS: tuple[PhaseConfig, ...] = tuple(sorted(PhaseConfig, key=lambda c: c.value))

# The subset rule, by configuration index: _ALLOWED[parent, child] is 1.0
# where the child's phase set is a subset of the parent's, else 0.0.
_ALLOWED = np.array([[c.phases <= p.phases for c in CONFIGS] for p in CONFIGS], dtype=float)
_ALLOWED.flags.writeable = False


def constrain(base: np.ndarray, parent: PhaseConfig) -> np.ndarray:
    """Mask ``base`` to the configurations whose phase set is a subset of the
    parent's, then renormalize.

    If the masked mass is exactly zero the result falls back to uniform over
    the allowed set, with a warning.
    """
    base = np.asarray(base, dtype=float)
    if base.shape != (7,):
        raise ValueError("base probabilities must be a length-7 vector")
    if not np.all((base >= 0.0) & (base < np.inf)):
        raise ValueError("base probabilities must be finite and nonnegative")
    mask = _ALLOWED[parent.value]
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


def fit_phase_model(
    observed: dict[str, PhaseConfig],
    zones: ZoneAssignment,
    config: FitConfig | None = None,
) -> Posterior:
    """Fit zone-conditioned base probabilities from observed bus configurations.

    The base rows are drawn exactly given the concentration rows (see the
    module docstring). Zones with no observations keep their prior (warning);
    an empty dataset is an error.
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
    conc_names = [f"conc_z{z}" for z in range(1, z_count + 1)]
    base_names = [f"base_z{z}" for z in range(1, z_count + 1)]

    def logpost(values) -> np.ndarray:
        # (chains, zones, 7) stacks of the concentration rows and base rows
        conc = np.stack([values[name] for name in conc_names], axis=-2)
        base = np.stack([values[name] for name in base_names], axis=-2)
        lp = _logpdf_halfnormal(conc, 1.0).sum(axis=-1)
        lp += _logpdf_dirichlet(base, conc)
        # xlogy scores an unobserved configuration 0 even where its base
        # probability underflowed to 0; the Dirichlet term is -inf there anyway
        lp += xlogy(counts, base).sum(axis=-1)
        return lp.sum(axis=-1)

    def draw_base(values, rngs) -> dict[str, np.ndarray]:
        # base_z | conc_z, counts ~ Dirichlet(conc_z + counts_z): every zone of
        # every chain in one call, chain c from rngs[c]
        posterior = np.stack([values[name] for name in conc_names], axis=-2) + counts
        base = sample_dirichlet(rngs, posterior)
        return {name: base[:, z] for z, name in enumerate(base_names)}

    init: dict[str, np.ndarray] = {}
    for z in range(1, z_count + 1):
        init[f"conc_z{z}"] = np.ones(7)
        smoothed = counts[z - 1] + 1.0
        init[f"base_z{z}"] = smoothed / smoothed.sum()
    ensemble = fit(logpost, space, config, init=init, exact=[(base_names, draw_base)])
    return Posterior(ensemble)


def allocate(
    topology: NetworkTopology,
    hierarchy: RamificationHierarchy,
    zones: ZoneAssignment,
    base: np.ndarray,
    rng,
) -> dict[str, PhaseConfig]:
    """Draw one subset-consistent allocation from zone base probabilities.

    ``base`` is a (Z, 7) matrix (one posterior draw). One walk down the
    shortest-path tree: the source is three-phase, each other ramification
    node draws from its zone's row constrained to its tree parent's
    configuration, and every other bus copies its tree parent. A constrained
    row is computed once per (zone, parent configuration), so a fallback
    warns once per pair. One ``rng.random(k)`` call gives one uniform per
    branch point in ramification order, scaled by the row total and placed
    by ``bisect_right`` on the row's running totals (``_cumulative``). The
    result is keyed in ``topology.buses`` order.
    """
    base = np.asarray(base, dtype=float)
    if base.shape != (zones.zone_count, 7):
        raise ValueError(
            f"base matrix shape {base.shape} does not match zone count {zones.zone_count}"
        )
    index = topology._index
    ids, parent, bus_zone = index.ids, index.parent, zones.bus_zone
    nodes = hierarchy.ramification_set[1:]
    uniform = dict(zip(nodes, rng.random(len(nodes)).tolist()))
    rows: dict[tuple[int, PhaseConfig], list[float]] = {}
    config = [PhaseConfig.ABC] * len(ids)  # the source's; the walk sets every other bus
    for v in index.order[1:]:
        above = config[parent[v]]
        u = uniform.get(ids[v])
        if u is None:
            config[v] = above
        else:
            key = (bus_zone[ids[v]], above)
            cum = rows.get(key)
            if cum is None:
                cum = rows[key] = _cumulative(constrain(base[key[0] - 1], above).tolist())
            config[v] = CONFIGS[bisect_right(cum, u * cum[-1])]
    return dict(zip(ids, config))


_VALUE = attrgetter("_value_")


def _line_ends(
    topology: NetworkTopology, distances: dict[str, float]
) -> tuple[np.ndarray, np.ndarray]:
    """Upstream and downstream end positions of each line, in line order, by
    the rule ``consistency_violations`` states."""
    index = topology._index
    n = len(index.ids)
    dist = np.fromiter(map(distances.__getitem__, index.ids), float, n)
    seq = np.empty(n, dtype=np.int64)  # pop order position of each bus
    seq[index.order] = np.arange(n)
    a = np.array(index.line_from, dtype=np.int64)
    b = np.array(index.line_to, dtype=np.int64)
    a_up = (dist[a] < dist[b]) | ((dist[a] == dist[b]) & (seq[a] < seq[b]))
    return np.where(a_up, a, b), np.where(a_up, b, a)


def consistency_violations(
    topology: NetworkTopology,
    allocation: dict[str, PhaseConfig],
    distances: dict[str, float],
) -> list[str]:
    """Line ids where the downstream phase set is not a subset of the upstream one.

    The upstream end is the one closer to the source; between equidistant
    ends, the one the shortest-path tree reaches first.
    """
    ids = topology._index.ids
    # _value_ is the plain member attribute; .value goes through a descriptor
    config = np.fromiter(map(_VALUE, map(allocation.__getitem__, ids)), np.int64, len(ids))
    up, down = _line_ends(topology, distances)
    bad = np.flatnonzero(_ALLOWED[config[up], config[down]] == 0.0)
    return [topology.lines[i].id for i in bad.tolist()]
