"""Graph distance, zone-binning, and ramification-hierarchy checks."""

import heapq
import json
import math
import re
import time
import warnings
from bisect import bisect_right
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridsynth import topology
from gridsynth.distributions import make_rng
from gridsynth.phases import CONFIGS, PhaseConfig, allocate, consistency_violations, constrain
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


def bus_ids(topology):
    return [b.id for b in topology.buses]


def assert_zones_ordered(distances, bus_zone, zone_count):
    """Zones are bins of distance: every zone 1..zone_count holds a bus, and
    every bus of a zone is nearer the source than every bus of a later zone."""
    by_zone = {}
    for bus, zone in bus_zone.items():
        by_zone.setdefault(zone, []).append(distances[bus])
    assert sorted(by_zone) == list(range(1, zone_count + 1))
    spans = [(min(by_zone[z]), max(by_zone[z])) for z in sorted(by_zone)]
    for (_, nearer_max), (farther_min, _) in zip(spans, spans[1:]):
        assert nearer_max < farther_min


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


def test_zone_count_counts_only_bins_that_hold_a_bus():
    # the interpolated edges 2.5, 5 and 7.5 leave the two middle bins empty
    with pytest.warns(UserWarning, match="only 2 non-empty distance bins for 4"):
        za = assign_zones({"a": 0.0, "b": 10.0}, (), 4)
    assert za.zone_count == 2
    assert za.bus_zone == {"a": 1, "b": 2}


def test_zone_of_source_is_one_and_line_upstream_rule():
    topo = chain([1.0, 1.0, 1.0, 1.0])
    d = compute_distances(topo)
    za = assign_zones(d, topo.lines, 2)
    assert za.bus_zone["src"] == 1
    for line in topo.lines:
        up = line.from_bus if d[line.from_bus] < d[line.to_bus] else line.to_bus
        assert za.line_zone[line.id] == za.bus_zone[up]


def test_line_zone_tie_breaks_to_smaller_bus_id():
    # assign_zones reads distances and lines alone: equidistant ends, which
    # no feeder's own distances give a line, still take one zone
    lines = (Line("l1", "src", "a", 1.0), Line("l2", "src", "b", 1.0), Line("l3", "b", "a", 2.0))
    d = {"src": 0.0, "a": 1.0, "b": 1.0}
    # the median edge is 1.0, the distance of a and b, so the far bin is empty
    with pytest.warns(UserWarning, match="merging degenerate bins"):
        za = assign_zones(d, lines, 2)
    # l3 endpoints are equidistant; 'a' < 'b' so the upstream pick is 'a'
    assert za.line_zone["l3"] == za.bus_zone["a"]


def test_zone_interval_invariant():
    rng = make_rng(5)
    dists = {"src": 0.0}
    dists.update({f"n{i}": float(x) for i, x in enumerate(rng.random(40) * 12)})
    za = assign_zones(dists, (), 5)
    assert za.zone_count == 5
    assert_zones_ordered(dists, za.bus_zone, za.zone_count)


def _allocations(topo, seeds=20):
    """Allocations under a uniform base on one zone, one per seed."""
    zones = assign_zones(compute_distances(topo), topo.lines, 1)
    hierarchy = build_hierarchy(topo)
    base = np.ones((1, 7))
    return [allocate(topo, hierarchy, zones, base, make_rng(seed)) for seed in range(seeds)]


def test_hierarchy_path_graph():
    topo = chain([1.0, 1.0, 1.0])
    h = build_hierarchy(topo)
    assert h.ramification_set == ("src",)
    assert h.parent == {}
    for phi in _allocations(topo):
        assert set(phi.values()) == {PhaseConfig.ABC}


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
    allocations = _allocations(topo)
    assert any(phi["m"] is not PhaseConfig.ABC for phi in allocations)
    for phi in allocations:
        assert phi["x"] is phi["m"] and phi["y"] is phi["m"]


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
    allocations = _allocations(topo)
    assert any(phi["m2"] is not phi["m1"] for phi in allocations)
    for phi in allocations:
        assert phi["a"] is PhaseConfig.ABC
        assert phi["p"] is phi["m1"] and phi["b"] is phi["m1"]
        assert phi["q"] is phi["m2"] and phi["r"] is phi["m2"]


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
    topo = _random_tree(rng, 80)
    dist, parent = shortest_path_tree(topo)
    neighbors = {bus: [] for bus in bus_ids(topo)}
    for line in topo.lines:
        neighbors[line.from_bus].append((line.to_bus, line.length_km))
        neighbors[line.to_bus].append((line.from_bus, line.length_km))
    ids = bus_ids(topo)
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


def _random_tree(rng, n):
    buses = [Bus("src")] + [Bus(f"n{i:03d}") for i in range(1, n)]
    lines = []
    for i in range(1, n):
        j = int(rng.random() * i)
        lines.append(
            Line(f"l{i:03d}", buses[j].id, buses[i].id, float(0.1 + rng.random()))
        )
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
    p.write_text('[{"id": "a"}]')
    with pytest.raises(TopologyError, match="top level"):
        load_topology(str(p))


def test_group_by_zone_keeps_input_order():
    zone_of = {"a": 1, "b": 2, "c": 1, "d": 2}
    grouped = group_by_zone({"c": 3.0, "a": 1.0, "b": 2.0, "d": 4.0}, zone_of, 3)
    assert [g.tolist() for g in grouped] == [[3.0, 1.0], [2.0, 4.0], []]


def test_line_shorter_than_distance_resolution():
    # m-a is too short to change the float distance: 1.0 + 1e-17 == 1.0, so
    # a would tie with its parent m (and sort before it by id); it is named
    buses = tuple(Bus(i) for i in ("src", "m", "x", "a", "p", "q"))
    lines = (
        Line("l1", "src", "m", 1.0),
        Line("l2", "m", "x", 1.0),
        Line("l3", "m", "a", 1e-17),
        Line("l4", "a", "p", 1.0),
        Line("l5", "a", "q", 1.0),
    )
    message = "^line 'l3' is too short to change the float distance$"
    with pytest.raises(TopologyError, match=message):
        NetworkTopology(buses=buses, lines=lines, source="src")
    # off the source the same length changes the distance, from 0.0 to 1e-17
    topo = NetworkTopology(buses=buses[:2], lines=(Line("l1", "src", "m", 1e-17),), source="src")
    assert compute_distances(topo) == {"src": 0.0, "m": 1e-17}


def test_a_mesh_is_rejected_naming_both_counts():
    buses = (Bus("src"), Bus("a"), Bus("b"))
    lines = (Line("l1", "src", "a", 1.0), Line("l2", "src", "b", 1.0), Line("l3", "b", "a", 2.0))
    with pytest.raises(TopologyError, match="^3 lines for 3 buses: a radial feeder has 2$"):
        NetworkTopology(buses=buses, lines=lines, source="src")


def test_a_cycle_names_every_bus_it_cuts_off():
    # n - 1 lines, with x and y joined twice (a two-line cycle) apart from the
    # source: x, y and the subtree z-w below the cycle are all named
    buses = tuple(Bus(i) for i in ("src", "a", "x", "y", "z", "w"))
    lines = (
        Line("l1", "src", "a", 1.0),
        Line("l2", "x", "y", 1.0),
        Line("l3", "y", "x", 2.0),
        Line("l4", "y", "z", 1.0),
        Line("l5", "z", "w", 1.0),
    )
    with pytest.raises(DisconnectedGraphError) as err:
        NetworkTopology(buses=buses, lines=lines, source="src")
    assert sorted(err.value.unreachable) == ["w", "x", "y", "z"]
    assert str(err.value) == "buses the tree does not reach from the source: w, x, y, z"
    # a two-line cycle at the source cuts off its far bus and what hangs below
    lines = (
        Line("l1", "src", "a", 1.0),
        Line("l2", "a", "src", 2.0),
        Line("l3", "src", "x", 1.0),
        Line("l4", "a", "y", 1.0),
        Line("l5", "y", "z", 1.0),
    )
    with pytest.raises(DisconnectedGraphError) as err:
        NetworkTopology(buses=buses, lines=lines, source="src")
    assert sorted(err.value.unreachable) == ["a", "w", "y", "z"]


def _walk_to_root_hierarchy(topology):
    """Reference: the walk-to-root hierarchy, ordered by (distance, bus id)."""
    dist, tree_parent = shortest_path_tree(topology)
    degree = Counter(b for line in topology.lines for b in (line.from_bus, line.to_bus))
    ram = {b for b in bus_ids(topology) if degree[b] > 2}
    ram.add(topology.source)

    def first_ram_ancestor(bus):
        node = tree_parent[bus]
        while node is not None:
            if node in ram:
                return node
            node = tree_parent[node]
        return topology.source

    parent = {r: first_ram_ancestor(r) for r in ram if r != topology.source}
    ordered = tuple(sorted(ram, key=lambda b: (dist[b], b)))
    return RamificationHierarchy(ramification_set=ordered, parent=parent)


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
    assert set(allocation) == set(bus_ids(topo))
    assert consistency_violations(topo, allocation, d) == []
    for line in topo.lines:
        near = min((line.from_bus, line.to_bus), key=lambda b: (d[b], b))
        assert zones.line_zone[line.id] == zones.bus_zone[near]
    assert_zones_ordered(d, zones.bus_zone, zones.zone_count)


@PROPERTY
@given(radial_trees(), st.integers(1, 8))
def test_every_zone_holds_a_bus_and_zones_follow_distance(topo, zone_count):
    d = compute_distances(topo)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        zones = assign_zones(d, topo.lines, zone_count)
    assert set(zones.bus_zone.values()) == set(range(1, zones.zone_count + 1))
    by_distance = sorted(d, key=d.__getitem__)
    ordered = [zones.bus_zone[b] for b in by_distance]
    assert ordered == sorted(ordered)
    assert zones.zone_count <= zone_count
    assert len(caught) == (zones.zone_count < zone_count)


# ---------------------------------------------------------------------------
# Input validation


@pytest.mark.parametrize(
    "record, name",
    [
        ({"lines": [{"id": "l", "from": "a", "to": "b", "length_km": "abc"}]}, "lines[0]"),
        ({"lines": [{"id": "l", "from": "a", "to": "b", "length_km": None}]}, "lines[0]"),
        ({"lines": [{"id": "l", "from": "a", "to": "b", "length_km": True}]}, "lines[0]"),
        ({"buses": [{"id": "a"}, {"id": "b", "no_load": "false"}]}, "buses[1]"),
        ({"buses": [{"id": "a"}, {"id": "b", "x": "foo"}]}, "buses[1]"),
        ({"buses": [{"id": "a", "y": [1.0]}, {"id": "b"}]}, "buses[0]"),
        ({"buses": [{"id": "a"}, "b"]}, "buses[1]"),
        ({"buses": 5}, "'buses'"),
        ({"buses": None}, "'buses'"),
        ({"lines": 7}, "'lines'"),
        ({"buses": [{"id": None}, {"id": "b"}]}, "buses[0] 'id'"),
        ({"buses": [{"id": "a"}, {"id": True}]}, "buses[1] 'id'"),
        ({"buses": [{"id": "a"}, {"id": 2.0}]}, "buses[1] 'id'"),
        ({"lines": [{"id": None, "from": "a", "to": "b", "length_km": 1.0}]}, "lines[0] 'id'"),
        ({"lines": [{"id": "l", "from": None, "to": "b", "length_km": 1.0}]}, "lines[0] 'from'"),
        ({"lines": [{"id": "l", "from": "a", "to": True, "length_km": 1.0}]}, "lines[0] 'to'"),
        ({"source": ["a"]}, "'source'"),
        ({"source": None}, "'source'"),
    ],
)
def test_load_topology_names_a_malformed_record(tmp_path, record, name):
    doc = {
        "source": "a",
        "buses": [{"id": "a"}, {"id": "b"}],
        "lines": [{"id": "l", "from": "a", "to": "b", "length_km": 1.0}],
    }
    doc.update(record)
    p = tmp_path / "topo.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(TopologyError, match=re.escape(name)):
        load_topology(str(p))


def test_load_topology_reads_numbers_and_flags(tmp_path):
    p = tmp_path / "topo.json"
    p.write_text(
        '{"source": "a", "buses": [{"id": "a", "x": 1, "y": null},'
        ' {"id": "b", "no_load": true}],'
        ' "lines": [{"id": "l", "from": "a", "to": "b", "length_km": 2}]}'
    )
    topo = load_topology(str(p))
    assert topo.buses == (Bus("a", x=1.0), Bus("b", no_load=True))
    assert topo.lines == (Line("l", "a", "b", 2.0),)


def test_load_topology_reads_integer_ids_as_strings(tmp_path):
    p = tmp_path / "topo.json"
    p.write_text(
        '{"source": 1, "buses": [{"id": 1}, {"id": "2"}],'
        ' "lines": [{"id": 7, "from": 1, "to": 2, "length_km": 1.5}]}'
    )
    topo = load_topology(str(p))
    assert topo.source == "1"
    assert topo.buses == (Bus("1"), Bus("2"))
    assert topo.lines == (Line("7", "1", "2", 1.5),)


@pytest.mark.parametrize("length", ["1.5", None, float("nan"), float("inf"), -1.0])
def test_topology_rejects_a_length_that_is_not_a_positive_number(length):
    buses = (Bus("a"), Bus("b"))
    with pytest.raises(TopologyError, match="line 'l'"):
        NetworkTopology(buses=buses, lines=(Line("l", "a", "b", length),), source="a")


@pytest.mark.parametrize(
    "faulty, message",
    [
        # unknown bus comes before a bad length on the same line, and the
        # first faulty line in input order is the one named
        (
            [Line("u", "a", "zz", -1.0), Line("s", "b", "b", 0.0)],
            "line 'u' references unknown bus",
        ),
        (
            [Line("s", "b", "b", 0.0), Line("u", "a", "zz", 1.0)],
            "line 's' length must be strictly positive",
        ),
        ([Line("s", "b", "b", 1.0), Line("z", "a", "b", 0.0)], "line 's' is a self-loop"),
        # lengths that are no float array: valid ones of other types pass,
        # and the first faulty line is still the one named
        (
            [
                Line("i", "a", "b", 2),
                Line("f", "b", "c", np.float32(0.5)),
                Line("n", "c", "b", None),
            ],
            "line 'n' length must be strictly positive, got None",
        ),
        (
            [Line("big", "a", "b", 2**64), Line("t", "b", "c", True), Line("x", "c", "a", "1.5")],
            "line 'x' length must be strictly positive, got '1.5'",
        ),
        (
            [Line("f", "a", "b", False), Line("n", "b", "c", math.nan)],
            "line 'f' length must be strictly positive, got False",
        ),
        (
            [Line("p", "a", "b", 1.0), Line("n", "b", "c", -math.inf), Line("s", "c", "c", 1.0)],
            "line 'n' length must be strictly positive, got -inf",
        ),
    ],
)
def test_validation_names_the_first_faulty_line(faulty, message):
    buses = (Bus("a"), Bus("b"), Bus("c"))
    lines = (Line("ok", "a", "c", 1.0), *faulty)
    with pytest.raises(TopologyError, match="^" + re.escape(message)):
        NetworkTopology(buses=buses, lines=lines, source="a")


# ---------------------------------------------------------------------------
# Differential check against the string-keyed algorithms the index replaced.
# These are references, kept here to pin the tree, tie rules, pop order and
# draw stream; they are not the code under test.


def _reference_tree(topology):
    adjacency = {b.id: [] for b in topology.buses}
    for line in topology.lines:
        adjacency[line.from_bus].append((line.to_bus, line.length_km, line.id))
        adjacency[line.to_bus].append((line.from_bus, line.length_km, line.id))
    for entries in adjacency.values():
        entries.sort()
    dist = {topology.source: 0.0}
    parent = {topology.source: None}
    order, done = [], set()
    heap = [(0.0, topology.source)]
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
    degree = {bus: len(entries) for bus, entries in adjacency.items()}
    return dist, parent, order, degree


def _reference_hierarchy(topology, tree_parent, order, degree):
    ram = {b for b in bus_ids(topology) if degree[b] > 2}
    ram.add(topology.source)
    above = {}
    for v in order[1:]:
        p = tree_parent[v]
        above[v] = p if p in ram else above[p]
    ordered = tuple(b for b in order if b in ram)
    return RamificationHierarchy(
        ramification_set=ordered,
        parent={r: above[r] for r in ordered[1:]},
    )


def _reference_categorical(rng, probs):
    """The scalar categorical draw as the package once had it: running totals
    of the probabilities, then one uniform scaled by their total."""
    cum = np.cumsum(np.asarray(probs, dtype=float)).tolist()
    return bisect_right(cum, rng.random() * cum[-1])


def _reference_allocation(topology, hierarchy, tree_parent, zones, base, rng):
    """Reference: the branch points draw in ramification order under their
    hierarchy parent; every other bus copies its nearest branch point up the
    tree ``tree_parent``."""
    phi = {topology.source: PhaseConfig.ABC}
    for node in hierarchy.ramification_set[1:]:
        probs = constrain(base[zones.bus_zone[node] - 1], phi[hierarchy.parent[node]])
        phi[node] = CONFIGS[_reference_categorical(rng, probs)]
    ram = set(hierarchy.ramification_set)
    for bus in bus_ids(topology):
        node = bus
        while node not in ram:
            node = tree_parent[node]
        phi[bus] = phi[node]
    return phi


def _reference_violations(topology, allocation, distances, order):
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


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(radial_trees(), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_index_layers_match_string_keyed_references(topo, zone_count, seed):
    dist, parent, order, degree = _reference_tree(topo)
    assert shortest_path_tree(topo) == (dist, parent)
    index = topo._index
    assert [index.ids[b] for b in index.order] == order
    assert dict(zip(index.ids, index.degree)) == degree

    hierarchy = build_hierarchy(topo)
    assert hierarchy == _reference_hierarchy(topo, parent, order, degree)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        zones = assign_zones(dist, topo.lines, zone_count)
    base = make_rng(seed).random((zones.zone_count, 7))
    rng, reference_rng = make_rng(seed), make_rng(seed)
    allocation = allocate(topo, hierarchy, zones, base, rng)
    reference = _reference_allocation(topo, hierarchy, parent, zones, base, reference_rng)
    assert allocation == reference
    assert list(allocation) == bus_ids(topo)
    assert rng.random() == reference_rng.random()  # both consumed the same draws

    # the allocation violates on no line, scrambled configurations on some;
    # both by the reference's rule
    configs = make_rng(seed).integers(0, 7, len(topo.buses)).tolist()
    scrambled = {b: CONFIGS[i] for b, i in zip(bus_ids(topo), configs)}
    for phases in (allocation, scrambled):
        assert consistency_violations(topo, phases, dist) == _reference_violations(
            topo, phases, dist, order
        )


@st.composite
def pure_trees(draw):
    """Feeders with one line fewer than buses, as (buses, lines, twin): trees
    with each line's ends in random order and lengths on a half-km grid so
    that distances tie; sometimes one line of 1e-17 km, too short to change a
    float distance; and when ``twin``, one line replaced by a parallel twin of
    another, which leaves a bus out of reach."""
    n = draw(st.integers(1, 30))
    names = [f"b{k:02d}" for k in draw(st.permutations(range(n)))]
    lines = []
    for i in range(1, n):
        ends = [names[draw(st.integers(0, i - 1))], names[i]]
        if draw(st.booleans()):
            ends.reverse()
        lines.append(Line(f"t{i:02d}", *ends, draw(st.sampled_from([0.5, 1.0, 1.5, 2.0]))))
    twin = n > 2 and draw(st.booleans())
    if twin:
        k, j = draw(st.permutations(range(n - 1)))[:2]
        lines[j] = Line(lines[j].id, lines[k].to_bus, lines[k].from_bus, lines[k].length_km)
    if lines and draw(st.booleans()):
        k = draw(st.integers(0, n - 2))
        lines[k] = lines[k]._replace(length_km=1e-17)
    lines = tuple(draw(st.permutations(lines)))
    return tuple(Bus(b) for b in names), lines, twin


def _index_matches_reference(topo):
    """Every field of the topology's index against ``_reference_tree``."""
    dist, parent, order, degree = _reference_tree(topo)
    index = topo._index
    ids = index.ids
    position = {b: i for i, b in enumerate(ids)}
    assert index.dist == [dist[b] for b in ids]
    assert index.parent == [-1 if parent[b] is None else position[parent[b]] for b in ids]
    assert [ids[b] for b in index.order] == order
    assert index.degree == [degree[b] for b in ids]
    assert index.seq.tolist() == [order.index(b) for b in ids]
    assert index.line_from.tolist() == [position[l.from_bus] for l in topo.lines]
    assert index.line_to.tolist() == [position[l.to_bus] for l in topo.lines]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(pure_trees())
def test_the_radial_path_builds_the_tree_the_heap_builds(feeder):
    """Where every bus is strictly farther than its tree parent, the index is
    the reference heap's; a twin names at least every bus the heap cannot
    reach, and a line too short to change the float distance is named."""
    buses, lines, twin = feeder
    source = buses[0].id
    if twin:
        dist, _, _, _ = _reference_tree(SimpleNamespace(buses=buses, lines=lines, source=source))
        with pytest.raises(DisconnectedGraphError) as err:
            NetworkTopology(buses=buses, lines=lines, source=source)
        assert {b.id for b in buses} - set(dist) <= set(err.value.unreachable)
        assert source not in err.value.unreachable
        return
    fault = _short_line_fault(buses, lines, source)
    if fault is None:
        _index_matches_reference(NetworkTopology(buses=buses, lines=lines, source=source))
    else:
        with pytest.raises(TopologyError, match="^" + re.escape(fault) + "$"):
            NetworkTopology(buses=buses, lines=lines, source=source)


def _short_line_fault(buses, lines, source):
    """The message naming the first line, in line order, whose ends the
    reference puts at one float distance, or None."""
    dist, _, _, _ = _reference_tree(SimpleNamespace(buses=buses, lines=lines, source=source))
    for line_id, u, v, _ in lines:
        if dist[u] == dist[v]:
            return f"line {line_id!r} is too short to change the float distance"
    return None


def _per_line_fault(buses, lines):
    """The message naming the first faulty line by the per-line rule, or None:
    an unknown endpoint, then a length that is not a positive finite number,
    then a self-loop."""
    known = {b.id for b in buses}
    for line_id, u, v, w in lines:
        if u not in known or v not in known:
            return f"line {line_id!r} references unknown bus"
        try:
            positive = w > 0.0 and math.isfinite(w)
        except TypeError:
            positive = False
        if not positive:
            return f"line {line_id!r} length must be strictly positive, got {w!r}"
        if u == v:
            return f"line {line_id!r} is a self-loop"
    return None


LENGTHS = [
    1.5, 2, True, False, np.float64(0.5), np.float32(0.25), 2**64, -1, 0.0, -1.0,
    "1.5", None, math.nan, math.inf, -math.inf,
]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.lists(
        st.tuples(
            st.one_of(st.sampled_from(LENGTHS), st.floats(0.1, 5.0)),
            st.sampled_from(["ok"] * 8 + ["unknown", "self-loop"]),
        ),
        max_size=8,
    ),
    st.randoms(use_true_random=False),
)
def test_validation_accepts_and_rejects_what_the_per_line_rule_does(drawn, random):
    """Lengths of every kind mixed within one feeder, with now and then an
    unknown endpoint or a self-loop: construction rejects exactly the feeders
    the per-line rule rejects, naming the same first faulty line, then those
    with a line too short to change the float distance (a huge length such as
    2**64 makes one), and builds the reference tree on every other."""
    buses = tuple(Bus(f"b{i}") for i in range(len(drawn) + 1))
    lines = []
    for i, (length, kind) in enumerate(drawn, start=1):
        ends = [f"b{random.randrange(i)}", f"b{i}"]
        if kind == "unknown":
            ends[random.randrange(2)] = "zz"
        elif kind == "self-loop":
            ends[0] = ends[1]
        lines.append(Line(f"l{i}", *ends, length))
    fault = _per_line_fault(buses, lines) or _short_line_fault(buses, lines, "b0")
    if fault is None:
        topo = NetworkTopology(buses=buses, lines=tuple(lines), source="b0")
        _index_matches_reference(topo)
    else:
        with pytest.raises(TopologyError) as err:
            NetworkTopology(buses=buses, lines=tuple(lines), source="b0")
        assert str(err.value) == fault


# ---------------------------------------------------------------------------
# Scaling


def _feeder(n, parents, rng):
    ids = [f"b{i:06d}" for i in range(n)]
    lengths = (0.05 + 0.45 * rng.random(n - 1)).tolist()
    buses = tuple(Bus(i) for i in ids)
    lines = tuple(
        Line(f"l{i:06d}", ids[p], ids[i], w) for i, p, w in zip(range(1, n), parents, lengths)
    )
    return buses, lines


@pytest.mark.parametrize("shape", ["chain", "random tree"])
def test_topology_layers_scale_to_100k_buses(shape):
    """Construct, tree, zones, hierarchy, allocation and the consistency check
    on 100k buses in under 2 s. Both the integer-index layers and the
    id-keyed ones they replaced run inside this bound (on a shared 2-core
    machine, 0.4-0.7 s against 0.55-1.7 s for the chain and the tree), so it
    does not tell them apart: it guards against a quadratic path, such as a
    walk to the root per bus on a chain."""
    n = 100_000
    rng = make_rng(3)
    if shape == "chain":
        parents = range(n - 1)
    else:
        parents = (rng.random(n - 1) * np.arange(1, n)).astype(np.int64).tolist()
    buses, lines = _feeder(n, parents, rng)
    start = time.perf_counter()
    topo = NetworkTopology(buses=buses, lines=lines, source=buses[0].id)
    d, parent = shortest_path_tree(topo)
    zones = assign_zones(d, topo.lines, 5)
    hierarchy = build_hierarchy(topo)
    allocation = allocate(topo, hierarchy, zones, np.full((zones.zone_count, 7), 1.0), rng)
    violations = consistency_violations(topo, allocation, d)
    elapsed = time.perf_counter() - start
    assert violations == [] and len(allocation) == n and len(parent) == n
    assert elapsed < 2.0, f"{shape}: {elapsed:.2f} s"


def test_a_100k_bus_tree_with_ten_more_lines_is_rejected_before_tree_work(monkeypatch):
    """A random 100k-bus tree with ten more lines is a mesh: construction
    names both counts after the per-line checks and before any tree work."""
    n = 100_000
    rng = make_rng(3)
    parents = (rng.random(n - 1) * np.arange(1, n)).astype(np.int64).tolist()
    buses, lines = _feeder(n, parents, rng)
    ends = rng.permutation(n)[:20].tolist()
    lines += tuple(
        Line(f"m{k}", buses[a].id, buses[b].id, 0.3)
        for k, (a, b) in enumerate(zip(ends[::2], ends[1::2]))
    )

    def no_tree(*args):
        raise AssertionError("the tree was built")

    monkeypatch.setattr(topology, "_radial_tree", no_tree)
    message = "^100009 lines for 100000 buses: a radial feeder has 99999$"
    with pytest.raises(TopologyError, match=message):
        NetworkTopology(buses=buses, lines=lines, source=buses[0].id)
