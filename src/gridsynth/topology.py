"""Feeder graph representation, path distances, zones, and branch hierarchy.

The topology is an undirected graph of buses and lines with one designated
source (substation) bus. Everything downstream-facing in the generator is
keyed off two derived structures: the quantile-binned distance zones of each
bus/line, and the hierarchy of ramification (branching) nodes that drives
phase allocation.

Construction builds one integer index of the feeder: each bus is its position
in ``buses``, and each line is the pair of its endpoint positions, with the
bus degrees beside them. The shortest-path tree from the source is kept on the
same positions as three arrays: distance, tree parent and the order Dijkstra
pops the buses in. ``shortest_path_tree``, ``build_hierarchy`` and
``phases.consistency_violations`` read these arrays instead of walking
id-keyed maps, and return id-keyed results as before.
"""

from __future__ import annotations

import heapq
import json
import math
import os
import warnings
from collections import Counter
from dataclasses import dataclass, field
from operator import attrgetter
from typing import NamedTuple

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


class Bus(NamedTuple):
    """A bus record. Records are tuples: one compares equal to the plain
    tuple of its fields, and its fields cannot be assigned."""

    id: str
    x: float | None = None
    y: float | None = None
    no_load: bool = False


class Line(NamedTuple):
    """A line record between two bus ids, a tuple like ``Bus``."""

    id: str
    from_bus: str
    to_bus: str
    length_km: float


class _Index(NamedTuple):
    """Integer view of a feeder, built once by ``NetworkTopology``.

    A bus is its position in ``buses``; ``line_from[i]`` and ``line_to[i]``
    are the endpoint positions of ``lines[i]``. The shortest-path tree is
    kept as ``dist`` and ``parent`` by position (-1 for the source) and
    ``order``, the positions in the order Dijkstra pops them.
    """

    ids: tuple[str, ...]
    position: dict[str, int]
    line_from: list[int]
    line_to: list[int]
    degree: list[int]
    dist: list[float]
    parent: list[int]
    order: list[int]


@dataclass(frozen=True)
class NetworkTopology:
    """Immutable bus/line graph with a designated source bus.

    Validated on construction: unique ids, positive line lengths, known
    endpoints, and full reachability from the source. Cycles are accepted.
    Construction also builds the integer index (see ``_Index``) and the
    shortest-path tree from the source, once; every topology layer reads them.
    """

    buses: tuple[Bus, ...]
    lines: tuple[Line, ...]
    source: str
    _index: _Index = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        ids = tuple(b.id for b in self.buses)
        position = dict(zip(ids, range(len(ids))))
        if len(position) != len(ids):
            _reject_duplicates("bus", ids)
        _reject_duplicates("line", [l.id for l in self.lines])
        source = position.get(self.source)
        if source is None:
            raise TopologyError(f"source bus {self.source!r} not among buses")
        neighbors: list[list[tuple[int, float]]] = [[] for _ in ids]
        line_from: list[int] = []
        line_to: list[int] = []
        for line_id, from_bus, to_bus, w in self.lines:
            u = position.get(from_bus)
            v = position.get(to_bus)
            if u is None or v is None:
                raise TopologyError(f"line {line_id!r} references unknown bus")
            if not _positive_finite(w):
                raise TopologyError(
                    f"line {line_id!r} length must be strictly positive, got {w!r}"
                )
            if u == v:
                raise TopologyError(f"line {line_id!r} is a self-loop")
            line_from.append(u)
            line_to.append(v)
            neighbors[u].append((v, w))
            neighbors[v].append((u, w))
        dist, parent, order = _dijkstra(ids, neighbors, source)
        if len(order) != len(ids):
            raise DisconnectedGraphError([b for b, d in zip(ids, dist) if d is None])
        index = _Index(
            ids, position, line_from, line_to, [len(e) for e in neighbors], dist, parent, order
        )
        object.__setattr__(self, "_index", index)


def _positive_finite(value) -> bool:
    try:
        return value > 0.0 and math.isfinite(value)
    except TypeError:
        return False


def _reject_duplicates(kind: str, ids: list[str]) -> None:
    """Raise naming every id that occurs more than once, in sorted order."""
    if len(set(ids)) != len(ids):
        dupes = sorted(i for i, n in Counter(ids).items() if n > 1)
        raise TopologyError(f"duplicate {kind} ids: {', '.join(dupes)}")


@dataclass(frozen=True)
class ZoneAssignment:
    """Distance-quantile zones for buses and lines.

    Bins are half-open with ties at an edge resolved to the lower zone:
    between consecutive distance quantiles q, zone k covers (q[k-1], q[k]],
    except zone 1 which also includes its lower edge. ``zone_count`` is the
    effective count after merging degenerate bins: every zone 1..``zone_count``
    holds at least one bus.
    """

    zone_count: int
    bus_zone: dict[str, int]
    line_zone: dict[str, int]


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


def _dijkstra(
    ids: tuple[str, ...], neighbors: list[list[tuple[int, float]]], source: int
) -> tuple[list, list[int], list[int]]:
    """Distances (None where unreached), tree parents and pop order by position.

    The heap pops by (distance, bus id), and between equal distances a bus
    keeps the predecessor with the smaller id. A bus is popped after its
    predecessor, so parents precede children in pop order even across a line
    too short to change the float distance.
    """
    dist: list = [None] * len(ids)
    parent = [-1] * len(ids)
    done = [False] * len(ids)
    order: list[int] = []
    dist[source] = 0.0
    heap = [(0.0, ids[source], source)]
    while heap:
        d, _, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        order.append(u)
        for v, w in neighbors[u]:
            nd = d + w
            dv = dist[v]
            if dv is None or nd < dv:
                dist[v] = nd
                parent[v] = u
                heapq.heappush(heap, (nd, ids[v], v))
            elif nd == dv and not done[v] and parent[v] >= 0 and ids[u] < ids[parent[v]]:
                parent[v] = u
    return dist, parent, order


def shortest_path_tree(topology: NetworkTopology) -> tuple[dict[str, float], dict[str, str | None]]:
    """Dijkstra distances from the source plus a deterministic predecessor map.

    Ties in distance are broken toward the smaller predecessor bus id so the
    tree (and everything derived from it) is reproducible. The tree is
    computed once when the topology is built; these are copies of it.
    """
    index = topology._index
    ids = index.ids
    named = ids + (None,)  # parent -1, the source's, names None
    return dict(zip(ids, index.dist)), dict(zip(ids, map(named.__getitem__, index.parent)))


def compute_distances(topology: NetworkTopology) -> dict[str, float]:
    """Shortest-path distance in km from the source to every bus."""
    index = topology._index
    return dict(zip(index.ids, index.dist))


def assign_zones(
    distances: dict[str, float], lines: tuple[Line, ...] | list[Line], zone_count: int
) -> ZoneAssignment:
    """Partition buses into equal-frequency distance bins.

    Lines take the zone of their upstream endpoint, the one closer to the
    source. Zones never decrease with distance, so that is the smaller of the
    two endpoint zones, and equidistant endpoints share a zone. Only bins
    that hold a bus are numbered, so every zone 1..``zone_count`` holds one.
    Requesting more bins than that degrades gracefully: duplicate edges and
    empty bins are merged and a warning is emitted.
    """
    if zone_count < 1:
        raise TopologyError(f"zone count must be >= 1, got {zone_count}")
    values = np.fromiter(distances.values(), float, len(distances))
    qs = np.quantile(values, np.linspace(0.0, 1.0, zone_count + 1))
    inner = np.unique(qs[1:-1])
    inner = inner[(inner > values.min()) & (inner <= values.max())]
    # side='left' puts a value equal to an edge into the lower bin
    bins = np.searchsorted(inner, values, side="left")
    # interpolated edges can leave a bin empty: number only the bins held
    held = np.bincount(bins, minlength=inner.size + 1) > 0
    zones = np.cumsum(held)[bins]
    effective = int(held.sum())
    if effective < zone_count:
        warnings.warn(
            f"only {effective} non-empty distance bins for {zone_count} "
            "requested zones; merging degenerate bins",
            stacklevel=2,
        )
    bus_zone = dict(zip(distances, zones.tolist()))
    upstream = np.minimum(
        _zones_at(bus_zone, lines, "from_bus"), _zones_at(bus_zone, lines, "to_bus")
    )
    line_zone = dict(zip(map(attrgetter("id"), lines), upstream.tolist()))
    return ZoneAssignment(zone_count=effective, bus_zone=bus_zone, line_zone=line_zone)


def _zones_at(bus_zone: dict[str, int], lines, end: str) -> np.ndarray:
    """Zone of each line's ``end`` ("from_bus" or "to_bus"), in line order."""
    zone_of = map(bus_zone.__getitem__, map(attrgetter(end), lines))
    return np.fromiter(zone_of, np.int64, len(lines))


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
    index = topology._index
    ids, parent, order = index.ids, index.parent, index.order
    ram = [d > 2 for d in index.degree]
    ram[order[0]] = True  # the source
    # order lists every bus after its tree parent, so above[p] is set before v reads it
    above = [-1] * len(ids)
    for v in order[1:]:
        p = parent[v]
        above[v] = p if ram[p] else above[p]
    ordered = [b for b in order if ram[b]]
    return RamificationHierarchy(
        ramification_set=tuple(ids[b] for b in ordered),
        parent={ids[r]: ids[above[r]] for r in ordered[1:]},
        nearest_ramification={ids[v]: ids[above[v]] for v in range(len(ids)) if not ram[v]},
    )


# ---------------------------------------------------------------------------
# File format


def load_topology(path: str) -> NetworkTopology:
    """Read a topology JSON file.

    Schema: ``{"source": id, "buses": [{"id", "x"?, "y"?, "no_load"?}],
    "lines": [{"id", "from", "to", "length_km"}]}``. ``buses`` and ``lines``
    are lists; every id (``source``, ``id``, ``from`` and ``to``) is a string
    or an integer, read as its decimal string; ``x`` and ``y`` are numbers or
    null, ``no_load`` is true or false and ``length_km`` is a number. A key or
    record that breaks this raises ``TopologyError`` naming it.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise TopologyError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise TopologyError(f"{path}: top level must be an object")
    for key in ("buses", "lines", "source"):
        if key not in doc:
            raise TopologyError(f"{path}: missing required key {key!r}")
    for key in ("buses", "lines"):
        if not isinstance(doc[key], list):
            raise TopologyError(f"{path}: {key!r} must be a list, got {doc[key]!r}")
    buses = []
    for i, rec in enumerate(doc["buses"]):
        where = f"{path}: buses[{i}]"
        if not isinstance(rec, dict):
            raise TopologyError(f"{where} must be an object")
        if "id" not in rec:
            raise TopologyError(f"{where} missing 'id'")
        x, y = (
            None if rec.get(key) is None else _number(rec[key], f"{where} {key!r}")
            for key in ("x", "y")
        )
        no_load = rec.get("no_load", False)
        if not isinstance(no_load, bool):
            raise TopologyError(f"{where} 'no_load' must be true or false, got {no_load!r}")
        buses.append(Bus(id=_id(rec["id"], f"{where} 'id'"), x=x, y=y, no_load=no_load))
    lines = []
    for i, rec in enumerate(doc["lines"]):
        where = f"{path}: lines[{i}]"
        if not isinstance(rec, dict):
            raise TopologyError(f"{where} must be an object")
        for key in ("id", "from", "to", "length_km"):
            if key not in rec:
                raise TopologyError(f"{where} missing {key!r}")
        lines.append(
            Line(
                id=_id(rec["id"], f"{where} 'id'"),
                from_bus=_id(rec["from"], f"{where} 'from'"),
                to_bus=_id(rec["to"], f"{where} 'to'"),
                length_km=_number(rec["length_km"], f"{where} 'length_km'"),
            )
        )
    source = _id(doc["source"], f"{path}: 'source'")
    return NetworkTopology(buses=tuple(buses), lines=tuple(lines), source=source)


def _id(value, where: str) -> str:
    """A JSON id as a string: a string as it is, an integer as its decimal
    string; anything else (a bool, null, a float, a list) raises."""
    if isinstance(value, str) or (isinstance(value, int) and not isinstance(value, bool)):
        return str(value)
    raise TopologyError(f"{where} must be a string or an integer, got {value!r}")


def _number(value, where: str) -> float:
    """A JSON number as a float; anything else (a string, a bool, null) raises."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise TopologyError(f"{where} must be a number, got {value!r}")


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
