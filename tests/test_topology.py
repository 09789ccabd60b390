"""Graph distance, zone-binning, and ramification-hierarchy checks."""

import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridsynth.distributions import make_rng
from gridsynth.phases import allocate, consistency_violations
from gridsynth.topology import (
    Bus,
    DisconnectedGraphError,
    Line,
    NetworkTopology,
    RamificationHierarchy,
    TopologyError,
    assign_zones,
    build_hierarchy,
    compute_distances,
    group_by_zone,
    load_topology,
    save_topology,
    shortest_path_tree,
)


def chain(lengths, prefix="b"):
    buses = [Bus("src")] + [Bus(f"{prefix}{i}") for i in range(1, len(lengths) + 1)]
    names = [b.id for b in buses]
    lines = [
        Line(f"l{i}", names[i], names[i + 1], lengths[i]) for i in range(len(lengths))
    ]
    return NetworkTopology(buses=tuple(buses), lines=tuple(lines), source="src")


def test_two_bus_chain_distance():
    topo = chain([1.5])
    assert compute_distances(topo) == {"src": 0.0, "b1": 1.5}


def test_source_alone():
    topo = NetworkTopology(buses=(Bus("src"),), lines=(), source="src")
    assert compute_distances(topo) == {"src": 0.0}


def test_y_graph_leaf_distances():
    # hand Dijkstra: three legs of 1, 2, 3 km off the source
    buses = tuple(Bus(i) for i in ("src", "a", "b", "c"))
    lines = (
        Line("la", "src", "a", 1.0),
        Line("lb", "src", "b", 2.0),
        Line("lc", "src", "c", 3.0),
    )
    topo = NetworkTopology(buses=buses, lines=lines, source="src")
    d = compute_distances(topo)
    assert (d["a"], d["b"], d["c"]) == (1.0, 2.0, 3.0)


def test_disconnected_error_names_buses():
    buses = (Bus("src"), Bus("x"), Bus("y"))
    lines = (Line("l1", "x", "y", 1.0),)
    with pytest.raises(DisconnectedGraphError) as err:
        NetworkTopology(buses=buses, lines=lines, source="src")
    assert "x" in str(err.value) and "y" in str(err.value)


def test_validation_errors():
    with pytest.raises(TopologyError):
        NetworkTopology(buses=(Bus("a"), Bus("a")), lines=(), source="a")
    with pytest.raises(TopologyError):
        NetworkTopology(
            buses=(Bus("a"), Bus("b")),
            lines=(Line("l", "a", "b", 0.0),),
            source="a",
        )
    with pytest.raises(TopologyError):
        NetworkTopology(buses=(Bus("a"),), lines=(), source="missing")


@pytest.mark.parametrize("kind", ["bus", "line"])
def test_duplicate_ids_on_a_long_chain_are_named_quickly(kind):
    # 40k buses with one id repeated: the check is one pass, not one per id
    n = 40_000
    ids = [f"b{i}" for i in range(n)]
    line_ids = [f"l{i}" for i in range(n - 1)]
    if kind == "bus":
        ids[30_000] = ids[123]
    else:
        line_ids[30_000] = line_ids[123]
    buses = tuple(Bus(i) for i in ids)
    lines = tuple(Line(l, f"b{i}", f"b{i + 1}", 1.0) for i, l in enumerate(line_ids))
    start = time.perf_counter()
    with pytest.raises(TopologyError, match=f"^duplicate {kind} ids: {kind[0]}123$"):
        NetworkTopology(buses=buses, lines=lines, source="b0")
    assert time.perf_counter() - start < 2.0


def test_zone_median_split():
    topo = chain([1.0, 1.0, 1.0])  # distances 0, 1, 2, 3
    d = compute_distances(topo)
    za = assign_zones(d, topo.lines, 2)
    assert [za.bus_zone[b] for b in ("src", "b1", "b2", "b3")] == [1, 1, 2, 2]
    assert za.zone_count == 2


def test_zone_single_bin():
    topo = chain([1.0, 2.0])
    za = assign_zones(compute_distances(topo), topo.lines, 1)
    assert set(za.bus_zone.values()) == {1}


def test_zone_degenerate_warning():
    buses = tuple(Bus(i) for i in ("src", "a", "b"))
    lines = (Line("l1", "src", "a", 1.0), Line("l2", "src", "b", 1.0))
    topo = NetworkTopology(buses=buses, lines=lines, source="src")
    d = compute_distances(topo)
    with pytest.warns(UserWarning, match="merging degenerate bins"):
        za = assign_zones({k: 1.0 for k in d}, topo.lines, 3)
    assert set(za.bus_zone.values()) == {1}
    assert za.zone_count == 1


def test_zone_of_source_is_one_and_line_upstream_rule():
    topo = chain([1.0, 1.0, 1.0, 1.0])
    d = compute_distances(topo)
    za = assign_zones(d, topo.lines, 2)
    assert za.bus_zone["src"] == 1
    for line in topo.lines:
        up = line.from_bus if d[line.from_bus] < d[line.to_bus] else line.to_bus
        assert za.line_zone[line.id] == za.bus_zone[up]


def test_line_zone_tie_breaks_to_smaller_bus_id():
    buses = (Bus("src"), Bus("a"), Bus("b"))
    lines = (Line("l1", "src", "a", 1.0), Line("l2", "src", "b", 1.0), Line("l3", "b", "a", 2.0))
    topo = NetworkTopology(buses=buses, lines=lines, source="src")
    d = compute_distances(topo)
    za = assign_zones(d, topo.lines, 2)
    # l3 endpoints are equidistant; 'a' < 'b' so the upstream pick is 'a'
    assert za.line_zone["l3"] == za.bus_zone["a"]


def test_zone_interval_invariant():
    rng = make_rng(5)
    dists = {"src": 0.0}
    dists.update({f"n{i}": float(x) for i, x in enumerate(rng.random(40) * 12)})
    za = assign_zones(dists, (), 5)
    edges = za.edges
    for bus, zone in za.bus_zone.items():
        d = dists[bus]
        lo, hi = edges[zone - 1], edges[zone]
        if zone == 1:
            assert lo <= d <= hi
        else:
            assert lo < d <= hi


def test_hierarchy_path_graph():
    topo = chain([1.0, 1.0, 1.0])
    h = build_hierarchy(topo)
    assert h.ramification_set == ("src",)
    assert h.parent == {}
    assert set(h.nearest_ramification.values()) == {"src"}


def test_hierarchy_star_with_center():
    # source -- m, with m branching to x and y: deg(m) = 3
    buses = tuple(Bus(i) for i in ("src", "m", "x", "y"))
    lines = (
        Line("l1", "src", "m", 1.0),
        Line("l2", "m", "x", 1.0),
        Line("l3", "m", "y", 1.0),
    )
    topo = NetworkTopology(buses=buses, lines=lines, source="src")
    h = build_hierarchy(topo)
    assert set(h.ramification_set) == {"src", "m"}
    assert h.parent["m"] == "src"
    assert h.nearest_ramification == {"x": "m", "y": "m"}


def test_hierarchy_two_nested_branch_points():
    # src - a - m1 -(b)- m2 with m1 and m2 each branching; path enumeration by hand
    buses = tuple(Bus(i) for i in ("src", "a", "m1", "p", "b", "m2", "q", "r"))
    lines = (
        Line("l1", "src", "a", 1.0),
        Line("l2", "a", "m1", 1.0),
        Line("l3", "m1", "p", 1.0),
        Line("l4", "m1", "b", 1.0),
        Line("l5", "b", "m2", 1.0),
        Line("l6", "m2", "q", 1.0),
        Line("l7", "m2", "r", 1.0),
    )
    topo = NetworkTopology(buses=buses, lines=lines, source="src")
    h = build_hierarchy(topo)
    assert set(h.ramification_set) == {"src", "m1", "m2"}
    assert h.parent["m1"] == "src"
    assert h.parent["m2"] == "m1"
    assert h.nearest_ramification["a"] == "src"
    assert h.nearest_ramification["p"] == "m1"
    assert h.nearest_ramification["b"] == "m1"
    assert h.nearest_ramification["q"] == "m2"


def test_topological_order_parents_first():
    rng = make_rng(9)
    topo = _random_tree(rng, 60)
    h = build_hierarchy(topo)
    seen = set()
    for r in h.ramification_set:
        if r != topo.source:
            assert h.parent[r] in seen
        seen.add(r)


def test_triangle_inequality_on_random_paths():
    rng = make_rng(10)
    topo = _random_tree(rng, 80, extra_edges=10)
    dist, parent = shortest_path_tree(topo)
    neighbors = {bus: [] for bus in topo.bus_ids}
    for line in topo.lines:
        neighbors[line.from_bus].append((line.to_bus, line.length_km))
        neighbors[line.to_bus].append((line.from_bus, line.length_km))
    ids = topo.bus_ids
    for _ in range(100):
        bus = ids[int(rng.random() * len(ids))]
        # sum of edge lengths along the predecessor path equals the Dijkstra distance
        total = 0.0
        node = bus
        while parent[node] is not None:
            up = parent[node]
            length = min(w for v, w in neighbors[node] if v == up)
            total += length
            node = up
        assert total == pytest.approx(dist[bus], rel=1e-12)
        # and any explicit edge relaxes consistently with the triangle inequality
        for v, w in neighbors[bus]:
            assert dist[v] <= dist[bus] + w + 1e-12


def _random_tree(rng, n, extra_edges=0):
    buses = [Bus("src")] + [Bus(f"n{i:03d}") for i in range(1, n)]
    lines = []
    for i in range(1, n):
        j = int(rng.random() * i)
        lines.append(
            Line(f"l{i:03d}", buses[j].id, buses[i].id, float(0.1 + rng.random()))
        )
    for k in range(extra_edges):
        a = int(rng.random() * n)
        b = int(rng.random() * n)
        if a != b:
            lines.append(Line(f"x{k:03d}", buses[a].id, buses[b].id, float(0.1 + rng.random())))
    return NetworkTopology(buses=tuple(buses), lines=tuple(lines), source="src")


def test_topology_file_round_trip(tmp_path):
    topo = chain([1.0, 2.0])
    path = str(tmp_path / "topo.json")
    save_topology(topo, path)
    loaded = load_topology(path)
    assert loaded == topo


def test_topology_file_errors(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"buses": [{"id": "a"}], "lines": []}')
    with pytest.raises(TopologyError, match="source"):
        load_topology(str(p))
    p.write_text('{"source": "a", "buses": [{"id": "a"}], "lines": [{"id": "l"}]}')
    with pytest.raises(TopologyError, match="lines\\[0\\]"):
        load_topology(str(p))


def test_group_by_zone_keeps_input_order():
    zone_of = {"a": 1, "b": 2, "c": 1, "d": 2}
    grouped = group_by_zone({"c": 3.0, "a": 1.0, "b": 2.0, "d": 4.0}, zone_of, 3)
    assert [g.tolist() for g in grouped] == [[3.0, 1.0], [2.0, 4.0], []]


def test_line_shorter_than_distance_resolution():
    # m-a is too short to change the float distance: dist[a] == dist[m], and a
    # sorts before m by id although a hangs off m
    buses = tuple(Bus(i) for i in ("src", "m", "x", "a", "p", "q"))
    lines = (
        Line("l1", "src", "m", 1.0),
        Line("l2", "m", "x", 1.0),
        Line("l3", "m", "a", 1e-17),
        Line("l4", "a", "p", 1.0),
        Line("l5", "a", "q", 1.0),
    )
    topo = NetworkTopology(buses=buses, lines=lines, source="src")
    d = compute_distances(topo)
    assert d["a"] == d["m"]
    h = build_hierarchy(topo)
    assert h.ramification_set == ("src", "m", "a")
    assert h.parent == {"m": "src", "a": "m"}
    zones = assign_zones(d, topo.lines, 2)
    base = np.full((zones.zone_count, 7), 1.0 / 7.0)
    for seed in range(200):
        allocation = allocate(topo, h, zones, base, make_rng(seed))
        assert consistency_violations(topo, allocation, d) == []


def _walk_to_root_hierarchy(topology):
    """Reference: the walk-to-root hierarchy, ordered by (distance, bus id)."""
    dist, tree_parent = shortest_path_tree(topology)
    ram = {b for b in topology.bus_ids if topology.degree(b) > 2}
    ram.add(topology.source)

    def first_ram_ancestor(bus):
        node = tree_parent[bus]
        while node is not None:
            if node in ram:
                return node
            node = tree_parent[node]
        return topology.source

    parent = {r: first_ram_ancestor(r) for r in ram if r != topology.source}
    nearest = {v: first_ram_ancestor(v) for v in topology.bus_ids if v not in ram}
    ordered = tuple(sorted(ram, key=lambda b: (dist[b], b)))
    return RamificationHierarchy(
        ramification_set=ordered, parent=parent, nearest_ramification=nearest
    )


@st.composite
def radial_trees(draw):
    """Random radial feeders: bus i hangs off an earlier bus, ids shuffled so
    that id order says nothing about the tree, and lengths on a half-km grid
    often enough to give distance ties."""
    n = draw(st.integers(1, 40))
    names = [f"b{k:02d}" for k in draw(st.permutations(range(n)))]
    length = st.one_of(st.sampled_from([0.5, 1.0, 1.5]), st.floats(0.1, 5.0))
    lines = tuple(
        Line(f"l{i:02d}", names[draw(st.integers(0, i - 1))], names[i], draw(length))
        for i in range(1, n)
    )
    return NetworkTopology(buses=tuple(Bus(b) for b in names), lines=lines, source=names[0])


PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@PROPERTY
@given(radial_trees())
def test_hierarchy_matches_walk_to_root(topo):
    h = build_hierarchy(topo)
    assert h == _walk_to_root_hierarchy(topo)
    position = {b: i for i, b in enumerate(h.ramification_set)}
    assert h.ramification_set[0] == topo.source
    assert all(position[p] < position[c] for c, p in h.parent.items())


@PROPERTY
@given(radial_trees(), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_allocation_and_zones_on_random_trees(topo, zone_count, seed):
    d = compute_distances(topo)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        zones = assign_zones(d, topo.lines, zone_count)
    rng = make_rng(seed)
    base = rng.random((zones.zone_count, 7))
    allocation = allocate(topo, build_hierarchy(topo), zones, base, rng)
    assert set(allocation) == set(topo.bus_ids)
    assert consistency_violations(topo, allocation, d) == []
    for line in topo.lines:
        near = min((line.from_bus, line.to_bus), key=lambda b: (d[b], b))
        assert zones.line_zone[line.id] == zones.bus_zone[near]
    for bus, zone in zones.bus_zone.items():
        lo, hi = zones.edges[zone - 1], zones.edges[zone]
        assert (lo <= d[bus] if zone == 1 else lo < d[bus]) and d[bus] <= hi
