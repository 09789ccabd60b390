"""Feeder graph representation, path distances, zones, and branch hierarchy.

The topology is an undirected graph of buses and lines with one designated
source (substation) bus. Everything downstream-facing in the generator is
keyed off two derived structures: the quantile-binned distance zones of each
bus/line, and the hierarchy of ramification (branching) nodes that drives
phase allocation.
"""

from __future__ import annotations

import heapq
import json
import math
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "TopologyError",
    "DisconnectedGraphError",
    "Bus",
    "Line",
    "NetworkTopology",
    "ZoneAssignment",
    "RamificationHierarchy",
    "compute_distances",
    "shortest_path_tree",
    "assign_zones",
    "group_by_zone",
    "build_hierarchy",
    "load_topology",
    "save_topology",
]


class TopologyError(ValueError):
    """Invalid feeder graph input."""


class DisconnectedGraphError(TopologyError):
    """Graph has buses unreachable from the source."""

    def __init__(self, unreachable: list[str]):
        self.unreachable = list(unreachable)
        super().__init__(
            "buses unreachable from source: " + ", ".join(sorted(self.unreachable))
        )


@dataclass(frozen=True)
class Bus:
    id: str
    x: float | None = None
    y: float | None = None
    no_load: bool = False


@dataclass(frozen=True)
class Line:
    id: str
    from_bus: str
    to_bus: str
    length_km: float


@dataclass(frozen=True)
class NetworkTopology:
    """Immutable bus/line graph with a designated source bus.

    Validated on construction: unique ids, positive line lengths, known
    endpoints, and full reachability from the source. Cycles are accepted.
    The shortest-path tree from the source is computed here, once.
    """

    buses: tuple[Bus, ...]
    lines: tuple[Line, ...]
    source: str
    _adjacency: dict = field(init=False, repr=False, compare=False)
    _tree: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        bus_ids = [b.id for b in self.buses]
        if len(set(bus_ids)) != len(bus_ids):
            dupes = sorted({i for i in bus_ids if bus_ids.count(i) > 1})
            raise TopologyError(f"duplicate bus ids: {', '.join(dupes)}")
        line_ids = [l.id for l in self.lines]
        if len(set(line_ids)) != len(line_ids):
            dupes = sorted({i for i in line_ids if line_ids.count(i) > 1})
            raise TopologyError(f"duplicate line ids: {', '.join(dupes)}")
        known = set(bus_ids)
        if self.source not in known:
            raise TopologyError(f"source bus {self.source!r} not among buses")
        adjacency: dict[str, list[tuple[str, float, str]]] = {b.id: [] for b in self.buses}
        for line in self.lines:
            if line.from_bus not in known or line.to_bus not in known:
                raise TopologyError(f"line {line.id!r} references unknown bus")
            if not (line.length_km > 0.0) or not math.isfinite(line.length_km):
                raise TopologyError(
                    f"line {line.id!r} length must be strictly positive, got {line.length_km}"
                )
            if line.from_bus == line.to_bus:
                raise TopologyError(f"line {line.id!r} is a self-loop")
            adjacency[line.from_bus].append((line.to_bus, line.length_km, line.id))
            adjacency[line.to_bus].append((line.from_bus, line.length_km, line.id))
        for entries in adjacency.values():
            entries.sort()
        object.__setattr__(self, "_adjacency", adjacency)
        tree = _dijkstra(adjacency, self.source)
        if len(tree[0]) != len(self.buses):
            raise DisconnectedGraphError([b for b in bus_ids if b not in tree[0]])
        object.__setattr__(self, "_tree", tree)

    def neighbors(self, bus_id: str) -> list[tuple[str, float, str]]:
        """(neighbor, length_km, line_id) triples, sorted for determinism."""
        return self._adjacency[bus_id]

    def degree(self, bus_id: str) -> int:
        return len(self._adjacency[bus_id])

    @property
    def bus_ids(self) -> list[str]:
        return [b.id for b in self.buses]

    def is_radial(self) -> bool:
        return len(self.lines) == len(self.buses) - 1


@dataclass(frozen=True)
class ZoneAssignment:
    """Distance-quantile zones for buses and lines.

    Bins are half-open with ties at an edge resolved to the lower zone:
    zone k covers (edge[k-1], edge[k]], except zone 1 which also includes
    its lower edge. ``zone_count`` is the effective count after merging
    degenerate bins.
    """

    zone_count: int
    bus_zone: dict[str, int]
    line_zone: dict[str, int]
    bus_distance_km: dict[str, float]
    edges: tuple[float, ...]


@dataclass(frozen=True)
class RamificationHierarchy:
    """Branch points (degree > 2, plus the source) in topological order.

    ``parent`` maps each non-source ramification bus to the nearest
    ramification bus on its shortest path to the source. Every other bus maps
    through ``nearest_ramification`` to the ramification node whose phase it
    will inherit.
    """

    ramification_set: tuple[str, ...]
    parent: dict[str, str]
    nearest_ramification: dict[str, str]


def _dijkstra(adjacency: dict, source: str) -> tuple[dict, dict, list[str]]:
    """``shortest_path_tree`` plus the order buses are popped in. A bus is
    popped after its predecessor, so parents precede children in that order
    even across a line too short to change the float distance."""
    dist: dict[str, float] = {source: 0.0}
    parent: dict[str, str | None] = {source: None}
    order: list[str] = []
    done: set[str] = set()
    heap: list[tuple[float, str]] = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        order.append(u)
        for v, w, _ in adjacency[u]:
            nd = d + w
            if v not in dist or nd < dist[v]:
                dist[v] = nd
                parent[v] = u
                heapq.heappush(heap, (nd, v))
            elif v not in done and nd == dist[v] and parent[v] is not None and u < parent[v]:
                parent[v] = u
    return dist, parent, order


def shortest_path_tree(topology: NetworkTopology) -> tuple[dict[str, float], dict[str, str | None]]:
    """Dijkstra distances from the source plus a deterministic predecessor map.

    Ties in distance are broken toward the smaller predecessor bus id so the
    tree (and everything derived from it) is reproducible. The tree is
    computed once when the topology is built; these are copies of it.
    """
    dist, parent, _ = topology._tree
    return dict(dist), dict(parent)


def compute_distances(topology: NetworkTopology) -> dict[str, float]:
    """Shortest-path distance in km from the source to every bus."""
    dist, _ = shortest_path_tree(topology)
    return dist


def assign_zones(
    distances: dict[str, float], lines: tuple[Line, ...] | list[Line], zone_count: int
) -> ZoneAssignment:
    """Partition buses into equal-frequency distance bins.

    Lines take the zone of their upstream endpoint, the one closer to the
    source. Zones never decrease with distance, so that is the smaller of the
    two endpoint zones, and equidistant endpoints share a zone. Requesting
    more bins than there are distinct quantile edges degrades gracefully:
    duplicate edges are merged and a warning is emitted.
    """
    if zone_count < 1:
        raise TopologyError(f"zone count must be >= 1, got {zone_count}")
    ids = sorted(distances)
    values = np.array([distances[i] for i in ids])
    qs = np.quantile(values, np.linspace(0.0, 1.0, zone_count + 1))
    inner = np.unique(qs[1:-1])
    inner = inner[(inner > values.min()) & (inner <= values.max())]
    effective = int(inner.size) + 1
    if effective < zone_count:
        warnings.warn(
            f"only {effective} distinct distance bins available for {zone_count} "
            "requested zones; merging degenerate bins",
            stacklevel=2,
        )
    # side='left' puts a value equal to an edge into the lower zone
    zones = np.searchsorted(inner, values, side="left") + 1
    bus_zone = {i: int(z) for i, z in zip(ids, zones)}
    line_zone = {
        line.id: min(bus_zone[line.from_bus], bus_zone[line.to_bus]) for line in lines
    }
    edges = (float(values.min()),) + tuple(float(e) for e in inner) + (float(values.max()),)
    return ZoneAssignment(
        zone_count=effective,
        bus_zone=bus_zone,
        line_zone=line_zone,
        bus_distance_km={i: float(distances[i]) for i in ids},
        edges=edges,
    )


def group_by_zone(
    observations: dict[str, float], zone_of: dict[str, int], zone_count: int
) -> list[np.ndarray]:
    """Per-zone arrays of the observed values, zone 1 first, each in input order.

    ``zone_of`` maps an id to its zone (``ZoneAssignment.bus_zone`` or
    ``line_zone``). A value that is NaN or infinite, or an id with no zone,
    raises ``ValueError`` naming the id.
    """
    grouped: list[list[float]] = [[] for _ in range(zone_count)]
    for key, value in observations.items():
        zone = zone_of.get(key)
        if zone is None:
            raise ValueError(f"{key!r} has no zone")
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"{key!r}: observation {value} is not finite")
        grouped[zone - 1].append(value)
    return [np.asarray(g) for g in grouped]


def build_hierarchy(topology: NetworkTopology) -> RamificationHierarchy:
    """Identify ramification nodes and their parent order along the feeder."""
    _, tree_parent, order = topology._tree
    ram = {b for b in topology.bus_ids if topology.degree(b) > 2}
    ram.add(topology.source)
    # order lists every bus after its tree parent, so above[p] is set before v reads it
    above: dict[str, str] = {}
    for v in order[1:]:
        p = tree_parent[v]
        above[v] = p if p in ram else above[p]
    ordered = tuple(b for b in order if b in ram)
    return RamificationHierarchy(
        ramification_set=ordered,
        parent={r: above[r] for r in ordered[1:]},
        nearest_ramification={v: above[v] for v in topology.bus_ids if v not in ram},
    )


# ---------------------------------------------------------------------------
# File format


def load_topology(path: str) -> NetworkTopology:
    """Read a topology JSON file.

    Schema: ``{"source": id, "buses": [{"id", "x"?, "y"?, "no_load"?}],
    "lines": [{"id", "from", "to", "length_km"}]}``.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise TopologyError(f"{path}: not valid JSON ({exc})") from exc
    for key in ("buses", "lines", "source"):
        if key not in doc:
            raise TopologyError(f"{path}: missing required key {key!r}")
    buses = []
    for i, rec in enumerate(doc["buses"]):
        if "id" not in rec:
            raise TopologyError(f"{path}: buses[{i}] missing 'id'")
        buses.append(
            Bus(
                id=str(rec["id"]),
                x=rec.get("x"),
                y=rec.get("y"),
                no_load=bool(rec.get("no_load", False)),
            )
        )
    lines = []
    for i, rec in enumerate(doc["lines"]):
        for key in ("id", "from", "to", "length_km"):
            if key not in rec:
                raise TopologyError(f"{path}: lines[{i}] missing {key!r}")
        lines.append(
            Line(
                id=str(rec["id"]),
                from_bus=str(rec["from"]),
                to_bus=str(rec["to"]),
                length_km=float(rec["length_km"]),
            )
        )
    return NetworkTopology(buses=tuple(buses), lines=tuple(lines), source=str(doc["source"]))


def save_topology(topology: NetworkTopology, path: str) -> None:
    doc = {
        "source": topology.source,
        "buses": [
            {
                "id": b.id,
                **({"x": b.x} if b.x is not None else {}),
                **({"y": b.y} if b.y is not None else {}),
                **({"no_load": True} if b.no_load else {}),
            }
            for b in topology.buses
        ],
        "lines": [
            {"id": l.id, "from": l.from_bus, "to": l.to_bus, "length_km": l.length_km}
            for l in topology.lines
        ],
    }
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)
