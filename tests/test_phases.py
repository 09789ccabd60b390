"""Phase configuration, constraint, fitting, and allocation checks."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridsynth.datasets import demo_topology
from gridsynth.distributions import make_rng, substream
from gridsynth.inference import FitConfig
from gridsynth.phases import (
    CONFIGS,
    PhaseConfig,
    allocate,
    consistency_violations,
    constrain,
    fit_phase_model,
)
from gridsynth.topology import (
    Bus,
    Line,
    NetworkTopology,
    ZoneAssignment,
    assign_zones,
    build_hierarchy,
    compute_distances,
    shortest_path_tree,
)
from test_inference import constrain as constrain_values
from test_topology import meshed_feeders, radial_trees

FAST = FitConfig(chains=4, warmup=600, draws=600, thin=2, seed=31)

TABLE_BASE = np.array([0.142, 0.137, 0.131, 0.187, 0.143, 0.223, 0.038])


def allowed(parent):
    """The configurations ``constrain`` leaves any mass on under ``parent``."""
    out = constrain(np.full(7, 1.0 / 7.0), parent)
    return {c for c in CONFIGS if out[c.index] > 0.0}


def _prepared(topology):
    d = compute_distances(topology)
    zones = assign_zones(d, topology.lines, 1)
    hierarchy = build_hierarchy(topology)
    return d, zones, hierarchy


def test_config_index_order_and_sets():
    assert [c.name for c in CONFIGS] == ["A", "B", "C", "AB", "BC", "CA", "ABC"]
    assert PhaseConfig.AB.phases == frozenset("AB")
    assert PhaseConfig.CA.phases == frozenset("AC")
    assert PhaseConfig.from_name("AC") is PhaseConfig.CA
    assert PhaseConfig.from_name("cb") is PhaseConfig.BC
    with pytest.raises(ValueError):
        PhaseConfig.from_name("D")


def test_transition_examples():
    assert allowed(PhaseConfig.AB) == {PhaseConfig.A, PhaseConfig.B, PhaseConfig.AB}
    assert allowed(PhaseConfig.A) == {PhaseConfig.A}
    assert allowed(PhaseConfig.ABC) == set(CONFIGS)


def test_transition_monotone():
    for parent in CONFIGS:
        for larger in CONFIGS:
            if parent.phases <= larger.phases:
                assert allowed(parent) <= allowed(larger)


def test_constrain_uniform_base():
    out = constrain(np.full(7, 1.0 / 7.0), PhaseConfig.AB)
    np.testing.assert_allclose(out, [1 / 3, 1 / 3, 0, 1 / 3, 0, 0, 0], atol=1e-12)


def test_constrain_reference_base():
    out = constrain(TABLE_BASE, PhaseConfig.AB)
    total = 0.142 + 0.137 + 0.187
    assert total == pytest.approx(0.466)
    np.testing.assert_allclose(
        out,
        [0.142 / total, 0.137 / total, 0.0, 0.187 / total, 0.0, 0.0, 0.0],
        atol=1e-4,
    )
    assert out[0] == pytest.approx(0.3047, abs=2e-4)
    assert out[1] == pytest.approx(0.2940, abs=2e-4)
    assert out[3] == pytest.approx(0.4013, abs=2e-4)


def test_constrain_identity_under_abc():
    base = TABLE_BASE / TABLE_BASE.sum()
    np.testing.assert_allclose(constrain(base, PhaseConfig.ABC), base, atol=1e-15)


def test_constrain_zero_mass_fallback():
    base = np.zeros(7)
    base[6] = 1.0  # all mass on ABC, parent only allows A
    with pytest.warns(UserWarning, match="zero mass"):
        out = constrain(base, PhaseConfig.A)
    np.testing.assert_allclose(out, [1, 0, 0, 0, 0, 0, 0])


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("position", [PhaseConfig.A, PhaseConfig.BC])
def test_constrain_rejects_non_finite_base(value, position):
    # BC is masked out under parent A: a bad entry there is still an error
    base = np.full(7, 1.0 / 7.0)
    base[position.index] = value
    with pytest.raises(ValueError, match="finite and nonnegative"):
        constrain(base, PhaseConfig.A)


def test_constrain_simplex_property():
    rng = make_rng(8)
    for _ in range(300):
        base = rng.random(7)
        base /= base.sum()
        parent = CONFIGS[int(rng.random() * 7)]
        out = constrain(base, parent)
        assert abs(out.sum() - 1.0) < 1e-12
        assert np.all(out >= 0.0)
        for c in CONFIGS:
            if not c.phases <= parent.phases:
                assert out[c.index] == 0.0


def test_allocate_path_graph_all_abc():
    buses = tuple(Bus(i) for i in ("sub", "a", "b", "c"))
    lines = (
        Line("l1", "sub", "a", 1.0),
        Line("l2", "a", "b", 1.0),
        Line("l3", "b", "c", 1.0),
    )
    topo = NetworkTopology(buses=buses, lines=lines, source="sub")
    _, zones, hierarchy = _prepared(topo)
    base = np.full((1, 7), 1.0 / 7.0)
    phi = allocate(topo, hierarchy, zones, base, make_rng(1))
    assert all(cfg is PhaseConfig.ABC for cfg in phi.values())


def test_allocate_degenerate_base_restricts_subtree():
    # star: ramification node m forced to AB; descendants stay within {A, B}
    buses = tuple(Bus(i) for i in ("sub", "m", "x", "y", "x2"))
    lines = (
        Line("l1", "sub", "m", 1.0),
        Line("l2", "m", "x", 1.0),
        Line("l3", "m", "y", 1.0),
        Line("l4", "x", "x2", 1.0),
    )
    topo = NetworkTopology(buses=buses, lines=lines, source="sub")
    _, zones, hierarchy = _prepared(topo)
    base = np.zeros((1, 7))
    base[0, PhaseConfig.AB.index] = 1.0
    for seed in range(20):
        phi = allocate(topo, hierarchy, zones, base, make_rng(seed))
        assert phi["m"] is PhaseConfig.AB
        for b in ("x", "y", "x2"):
            assert phi[b].phases <= frozenset("AB")


def test_allocate_consistency_on_demo_feeder():
    topo = demo_topology()
    d = compute_distances(topo)
    zones = assign_zones(d, topo.lines, 1)
    hierarchy = build_hierarchy(topo)
    base = np.full((1, 7), 1.0 / 7.0)
    for i in range(200):
        phi = allocate(topo, hierarchy, zones, base, substream(99, "alloc", i))
        assert phi[topo.source] is PhaseConfig.ABC
        assert consistency_violations(topo, phi, d) == []


def test_mesh_line_off_the_tree_can_break_the_subset_rule():
    # x is a branch point of the shortest-path tree (s-x, x-z, x-y) and draws
    # A; y hangs off the source on the tree and copies its ABC, so the mesh
    # line x-y, whose upstream end is x, carries phases x lacks
    buses = tuple(Bus(i) for i in ("s", "x", "y", "z"))
    lines = (
        Line("l_sx", "s", "x", 0.5),
        Line("l_sy", "s", "y", 1.0),
        Line("l_xz", "x", "z", 0.3),
        Line("l_xy", "x", "y", 0.6),
    )
    topo = NetworkTopology(buses=buses, lines=lines, source="s")
    d, zones, hierarchy = _prepared(topo)
    base = np.zeros((1, 7))
    base[0, PhaseConfig.A.index] = 1.0
    phi = allocate(topo, hierarchy, zones, base, make_rng(0))
    assert phi["x"] is PhaseConfig.A and phi["y"] is PhaseConfig.ABC
    assert consistency_violations(topo, phi, d) == ["l_xy"]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.one_of(radial_trees(), meshed_feeders()), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_allocation_follows_the_tree(topo, zone_count, seed):
    """On radial and meshed feeders alike, every non-source bus holds its
    tree parent's configuration unless it is a branch point, whose phase set
    is a subset of its tree parent's."""
    distances, tree_parent = shortest_path_tree(topo)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        zones = assign_zones(distances, topo.lines, zone_count)
    hierarchy = build_hierarchy(topo)
    rng = make_rng(seed)
    phi = allocate(topo, hierarchy, zones, rng.random((zones.zone_count, 7)), rng)
    branch = set(hierarchy.ramification_set)
    assert phi[topo.source] is PhaseConfig.ABC
    for bus, parent in tree_parent.items():
        if parent is None:
            continue
        if bus in branch:
            assert phi[bus].phases <= phi[parent].phases
        else:
            assert phi[bus] is phi[parent]


def test_allocate_skew_under_uniform_base():
    # even with a uniform base the realized mix is skewed: subset masking only
    # ever narrows the options, so single-phase configurations absorb along
    # the hierarchy while ABC decays below 1/7
    topo = demo_topology()
    d = compute_distances(topo)
    zones = assign_zones(d, topo.lines, 1)
    hierarchy = build_hierarchy(topo)
    base = np.full((1, 7), 1.0 / 7.0)
    counts = np.zeros(7)
    for i in range(1000):
        phi = allocate(topo, hierarchy, zones, base, substream(17, "skew", i))
        for cfg in phi.values():
            counts[cfg.index] += 1
    freq = counts / counts.sum()
    for single in (PhaseConfig.A, PhaseConfig.B, PhaseConfig.C):
        assert freq[single.index] > 1.0 / 7.0
    assert freq[PhaseConfig.ABC.index] < 1.0 / 7.0
    assert np.max(np.abs(freq - 1.0 / 7.0)) > 0.05


def test_allocate_zero_mass_warns_once_per_zone_and_parent():
    # m (zone 1) is forced to A; its three branch children sit in zone 2, whose
    # row puts all mass on B, so each falls back to uniform over {A}
    buses = [Bus("sub"), Bus("m")]
    lines = [Line("l_m", "sub", "m", 1.0)]
    for i in range(3):
        buses.append(Bus(f"x{i}"))
        lines.append(Line(f"l_x{i}", "m", f"x{i}", 1.0))
        for j in range(2):
            buses.append(Bus(f"x{i}_{j}"))
            lines.append(Line(f"l_x{i}_{j}", f"x{i}", f"x{i}_{j}", 1.0))
    topo = NetworkTopology(buses=tuple(buses), lines=tuple(lines), source="sub")
    bus_zone = {b.id: 1 if b.id in ("sub", "m") else 2 for b in buses}
    zones = ZoneAssignment(
        zone_count=2, bus_zone=bus_zone, line_zone={}
    )
    base = np.zeros((2, 7))
    base[0, PhaseConfig.A.index] = 1.0
    base[1, PhaseConfig.B.index] = 1.0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        phi = allocate(topo, build_hierarchy(topo), zones, base, make_rng(2))
    assert [str(w.message) for w in caught if "zero mass" in str(w.message)] == [
        "base probabilities put zero mass on every configuration allowed under "
        "parent A; falling back to uniform over the allowed set"
    ]
    assert all(cfg is PhaseConfig.A for bus, cfg in phi.items() if bus != "sub")


def test_fit_all_abc_concentrates():
    topo = demo_topology()
    zones = assign_zones(compute_distances(topo), topo.lines, 1)
    observed = {b.id: PhaseConfig.ABC for b in topo.buses}
    with warnings.catch_warnings():
        # R-hat of a 600-sweep fit: the concentrations mix slowly; the test
        # reads only the base row
        warnings.filterwarnings("ignore", "R-hat", UserWarning)
        posterior = fit_phase_model(observed, zones, FAST)
    mean = posterior.ensemble.draws["base_z1"].mean(axis=0)
    assert mean[PhaseConfig.ABC.index] > 0.95


def test_fit_two_zones_recovers_composition_direction():
    topo = demo_topology()
    zones = assign_zones(compute_distances(topo), topo.lines, 2)
    rng = make_rng(12)
    observed = {}
    for bus in (b.id for b in topo.buses):
        if zones.bus_zone[bus] == 1:
            observed[bus] = PhaseConfig.ABC if rng.random() < 0.7 else PhaseConfig.A
        else:
            observed[bus] = PhaseConfig.ABC if rng.random() < 0.2 else PhaseConfig.A
    with warnings.catch_warnings():
        # R-hat of a 600-sweep fit: the concentrations mix slowly; the test
        # reads only the base rows
        warnings.filterwarnings("ignore", "R-hat", UserWarning)
        draws = fit_phase_model(observed, zones, FAST).ensemble.draws
    abc = PhaseConfig.ABC.index
    assert draws["base_z1"][:, abc].mean() > draws["base_z2"][:, abc].mean()


def test_fit_empty_dataset_errors():
    topo = demo_topology()
    zones = assign_zones(compute_distances(topo), topo.lines, 1)
    with pytest.raises(ValueError):
        fit_phase_model({}, zones, FAST)


def test_fit_sums_base_out_exactly(fit_calls):
    # each zone's column minus its HalfNormal(1) prior is log E[prod base^n]
    # over base ~ Dirichlet(conc), the probability of the observed sequence
    # with base summed out; checked by Monte Carlo at several conc rows
    zones = ZoneAssignment(
        zone_count=2, bus_zone={f"b{i}": 1 + i % 2 for i in range(24)}, line_zone={}
    )
    observed = {f"b{i}": CONFIGS[(i * i) % 7] for i in range(24)}
    fit_phase_model(observed, zones, FAST)
    ((log_posterior, space, init, _, terms),) = fit_calls
    assert all(terms[f"base_z{z}"] == [] for z in (1, 2))
    counts = np.zeros((2, 7))
    for bus, cfg in observed.items():
        counts[zones.bus_zone[bus] - 1, cfg.index] += 1.0
    rng = make_rng(808)
    z = space.to_unconstrained(init) + 0.5 * rng.standard_normal((3, space.dim))
    values, _ = constrain_values(space, z)
    columns = log_posterior(values)
    draws = 200_000
    for row, zone in np.ndindex(3, 2):
        conc = values[f"conc_z{zone + 1}"][row]
        prior = np.sum(np.log(np.sqrt(2.0 / np.pi)) - 0.5 * conc**2)
        log_w = np.log(rng.dirichlet(conc, draws)) @ counts[zone]
        peak = log_w.max()
        w = np.exp(log_w - peak)
        mean, se = w.mean(), w.std() / np.sqrt(draws)
        assert se < 0.05 * mean
        exact = np.exp(columns[row, zone] - prior - peak)
        assert abs(exact - mean) < 4.0 * se, (row, zone, exact, mean, se)
