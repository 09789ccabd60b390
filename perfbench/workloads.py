"""The four benchmark workloads: set-up, one operation, and its output check.

Each workload is a closed loop with one caller: the runner calls ``op`` again
only after the previous call returned. ``op`` opens a span around every call
it makes into a package layer; ``check`` runs outside the timed region and
returns the digest of the operation's outputs and any failed output checks.
"""

from __future__ import annotations

import hashlib
import os
import shutil
from dataclasses import dataclass, replace

import numpy as np

from gridsynth.datasets import (
    DEMO_CAIDI,
    DEMO_CAIFI,
    DEMO_LINE,
    DEMO_LOAD,
    DEMO_PHASE_BASE,
    DEMO_ZONES,
    demo_topology,
    write_demo_reference,
)
from gridsynth.distributions import substream
from gridsynth.inference import FitConfig
from gridsynth.lines import attach_zabc, fit_line_model, sample_line
from gridsynth.loads import draw_power_factor, fit_load_model, sample_demand
from gridsynth.phases import allocate, consistency_violations, fit_phase_model
from gridsynth.reliability import fit_caidi, fit_caifi, sample_caidi, sample_caifi
from gridsynth.topology import (
    Bus,
    Line,
    NetworkTopology,
    assign_zones,
    build_hierarchy,
    compute_distances,
    shortest_path_tree,
)

from reference import compare, read_reference
from spans import NullTracer

# One shortened fit configuration for every fit-demo operation; only its
# seed changes between operations.
FIT_CONFIG = {
    "full": FitConfig(chains=4, warmup=20, draws=20, thin=1),
    "tiny": FitConfig(chains=4, warmup=8, draws=8, thin=1),
}
FEEDER_BUSES = {
    "feeder-chain": {"full": 4000, "tiny": 300},
    "feeder-tree": {"full": 16000, "tiny": 300},
}
FIT_MODELS = ("phases.fit", "loads.fit", "reliability.fit_caidi", "reliability.fit_caifi", "lines.fit")
_NETWORK_PARTS = ("phases", "loads", "reliability", "lines")


class SetupError(RuntimeError):
    """The workload's inputs failed a set-up check."""


def _line_truth() -> dict:
    """DEMO_LINE as the draw dict the line model reads."""
    draw = {k: DEMO_LINE[k] for k in ("r_means", "r_cv", "rho_means", "rho_cv")}
    for z in range(1, DEMO_ZONES + 1):
        draw[f"r_weights_z{z}"] = DEMO_LINE["r_weights"][z - 1]
        draw[f"rho_weights_z{z}"] = DEMO_LINE["rho_weights"][z - 1]
    return draw


@dataclass
class Demo:
    """The demo feeder with everything generation needs precomputed."""

    topology: NetworkTopology
    distances: dict
    zones: object
    hierarchy: object
    load_buses: list
    downstream: dict


def _demo(topology: NetworkTopology) -> Demo:
    distances, parent = shortest_path_tree(topology)
    downstream = {
        l.id: l.to_bus if parent[l.to_bus] == l.from_bus else l.from_bus for l in topology.lines
    }
    return Demo(
        topology=topology,
        distances=distances,
        zones=assign_zones(distances, topology.lines, DEMO_ZONES),
        hierarchy=build_hierarchy(topology),
        load_buses=[
            b.id for b in topology.buses if b.id != topology.source and not b.no_load
        ],
        downstream=downstream,
    )


@dataclass
class Network:
    allocation: dict
    demands: dict
    caidi: dict
    caifi: dict
    lines: dict
    violations: list


def draw_network(demo: Demo, rngs: dict, tracer) -> Network:
    """One network from the ground-truth parameters, drawn in the order
    ``write_demo_reference`` draws it."""
    topo, zones = demo.topology, demo.zones
    with tracer.span("phases.allocate"):
        allocation = allocate(topo, demo.hierarchy, zones, DEMO_PHASE_BASE, rngs["phases"])
    with tracer.span("loads.sample_demand"):
        rng = rngs["loads"]
        pf = draw_power_factor(rng)
        demands = {b: sample_demand(DEMO_LOAD, allocation[b], rng, pf) for b in demo.load_buses}
    with tracer.span("reliability.sample"):
        rng = rngs["reliability"]
        caidi, caifi = {}, {}
        for bus in topo.buses:
            if bus.id == topo.source:
                continue
            z = zones.bus_zone[bus.id]
            caidi[bus.id] = sample_caidi(DEMO_CAIDI, z, rng)
            caifi[bus.id] = sample_caifi(DEMO_CAIFI, z, rng)
    with tracer.span("lines.sample_line"):
        rng = rngs["lines"]
        truth = _line_truth()
        params = {l.id: sample_line(truth, zones.line_zone[l.id], rng) for l in topo.lines}
    with tracer.span("lines.attach_zabc"):
        params = {
            lid: attach_zabc(p, allocation[demo.downstream[lid]]) for lid, p in params.items()
        }
    with tracer.span("phases.consistency_violations"):
        violations = consistency_violations(topo, allocation, demo.distances)
    return Network(allocation, demands, caidi, caifi, params, violations)


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# fit-demo


@dataclass
class FitContext:
    seed: int
    config: FitConfig
    reference: object
    zones: object
    ramification_nodes: int


def setup_fit(seed: int, scale: str, workdir: str, tracer) -> FitContext:
    os.makedirs(workdir, exist_ok=True)
    try:
        with tracer.span("datasets.write_demo_reference"):
            write_demo_reference(workdir, seed)
        with tracer.span("bench.read_reference"):
            ref = read_reference(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    demo = _demo(demo_topology())
    rngs = {part: substream(seed, "demo", part) for part in _NETWORK_PARTS}
    expected = draw_network(demo, rngs, NullTracer())
    problems = compare(ref, demo.topology, expected)
    if problems:
        raise SetupError("reference read back wrong: " + "; ".join(problems))
    distances = compute_distances(ref.topology)
    return FitContext(
        seed=seed,
        config=FIT_CONFIG[scale],
        reference=ref,
        zones=assign_zones(distances, ref.topology.lines, DEMO_ZONES),
        ramification_nodes=len(demo.hierarchy.ramification_set),
    )


def op_fit(ctx: FitContext, j: int, tracer) -> dict:
    """Fit one sub-model: operation j fits FIT_MODELS[j % 5], and the five
    operations of a round share one FitConfig seed."""
    model = FIT_MODELS[j % len(FIT_MODELS)]
    cfg = replace(ctx.config, seed=ctx.seed * 1000 + j // len(FIT_MODELS))
    ref, zones = ctx.reference, ctx.zones
    with tracer.span(model):
        if model == "phases.fit":
            posterior = fit_phase_model(ref.phases, zones, cfg)
        elif model == "loads.fit":
            posterior = fit_load_model(ref.loads, ref.phases, cfg)
        elif model == "reliability.fit_caidi":
            posterior = fit_caidi(ref.caidi, zones, cfg)
        elif model == "reliability.fit_caifi":
            posterior = fit_caifi(ref.caifi, zones, cfg)
        else:
            posterior = fit_line_model(ref.r1, ref.rho, zones, cfg)
    return {model: posterior.ensemble}


def warm_fit(ctx: FitContext) -> None:
    """Warm-up for fit-demo: a round at the tiny configuration runs every code
    path a fit uses. Its draws are not round 0's, so there is no digest to
    compare."""
    tiny = replace(ctx, config=FIT_CONFIG["tiny"])
    for j in range(len(FIT_MODELS)):
        op_fit(tiny, j, NullTracer())


def _support(name: str) -> str:
    if name.startswith(("base_z", "delta_tri", "r_weights_z", "rho_weights_z")):
        return "simplex"
    if name in ("delta_bi", "hurdle_p"):
        return "unit"
    if name.endswith("_means"):
        return "ordered_positive"
    return "positive"


def _outside_support(name: str, arr: np.ndarray) -> bool:
    if not np.all(np.isfinite(arr)):
        return True
    support = _support(name)
    if support == "simplex":
        return bool(np.any(arr < 0.0) or np.any(np.abs(arr.sum(axis=-1) - 1.0) > 1e-9))
    if support == "unit":
        return bool(np.any((arr <= 0.0) | (arr >= 1.0)))
    if support == "ordered_positive":
        return bool(np.any(arr <= 0.0) or np.any(np.diff(arr, axis=-1) <= 0.0))
    return bool(np.any(arr <= 0.0))


def _sub_diagnostics(ensemble) -> list[dict]:
    """Per-``fit`` diagnostics; the line model merges two fits."""
    diag = ensemble.diagnostics
    return [diag] if "acceptance" in diag else list(diag.values())


def fit_stats(ensemble, cfg: FitConfig) -> dict:
    subs = _sub_diagnostics(ensemble)
    accept = [a for d in subs for a in d["acceptance"].values()]
    return {
        "proposals": cfg.chains * (cfg.warmup + cfg.draws) * len(accept),
        "ess": [e for d in subs for e in d["ess"].values()],
        "rhat": [r for d in subs for r in d["rhat"].values()],
        "accept_mean": float(np.mean(accept)),
    }


def check_fit(ctx: FitContext, fits: dict) -> tuple[str, list[str], dict]:
    kept = ctx.config.chains * (ctx.config.draws // ctx.config.thin)
    problems = []
    parts = []
    for model, ensemble in fits.items():
        if ensemble.size != kept or any(d["kept_draws"] != kept for d in _sub_diagnostics(ensemble)):
            problems.append(f"{model}: kept {ensemble.size} draws, expected {kept}")
        for name in sorted(ensemble.draws):
            arr = ensemble.draws[name]
            if _outside_support(name, arr):
                problems.append(f"{model}: draws of {name} non-finite or outside support")
            parts += [name, arr.tobytes()]
    stats = {
        "ramification_nodes": ctx.ramification_nodes,
        "fits": {model: fit_stats(e, ctx.config) for model, e in fits.items()},
    }
    return _digest(parts), problems, stats


# ---------------------------------------------------------------------------
# generate-demo


@dataclass
class GenerateContext:
    seed: int
    demo: Demo
    ramification_nodes: int


def setup_generate(seed: int, scale: str, workdir: str, tracer) -> GenerateContext:
    demo = _demo(demo_topology())
    return GenerateContext(seed, demo, len(demo.hierarchy.ramification_set))


def op_generate(ctx: GenerateContext, j: int, tracer) -> Network:
    rngs = {part: substream(ctx.seed, "generate-demo", j, part) for part in _NETWORK_PARTS}
    return draw_network(ctx.demo, rngs, tracer)


def check_generate(ctx: GenerateContext, net: Network) -> tuple[str, list[str], dict]:
    problems = []
    if net.violations:
        problems.append(f"consistency violations on {len(net.violations)} lines")
    parts = [net.allocation[b.id].index for b in ctx.demo.topology.buses]
    for bus, demand in net.demands.items():
        absent = [i for i, p in enumerate("ABC") if p not in net.allocation[bus].phases]
        if np.any(demand.p_kw[absent] != 0.0) or np.any(demand.q_kvar[absent] != 0.0):
            problems.append(f"bus {bus}: demand on an absent phase")
        parts += [demand.p_kw.tobytes(), demand.q_kvar.tobytes()]
    parts += [(net.caidi[b], net.caifi[b]) for b in net.caidi]
    for lid, params in net.lines.items():
        config = net.allocation[ctx.demo.downstream[lid]]
        absent = [i for i, p in enumerate("ABC") if p not in config.phases]
        z = params.z_abc
        if not np.all(np.isfinite(z)):
            problems.append(f"line {lid}: z_abc not finite")
        if np.any(z[absent, :] != 0.0) or np.any(z[:, absent] != 0.0):
            problems.append(f"line {lid}: z_abc nonzero on an absent phase")
        parts += [params.r1_ohm_per_km, params.rho, z.tobytes()]
    return _digest(parts), problems, {"ramification_nodes": ctx.ramification_nodes}


# ---------------------------------------------------------------------------
# feeder-chain and feeder-tree


@dataclass
class FeederContext:
    name: str
    seed: int
    buses: tuple
    lines: tuple


def setup_feeder(name: str, seed: int, scale: str) -> FeederContext:
    """An unbranched chain, or a random recursive tree (bus i hangs off a
    uniformly chosen earlier bus), with random segment lengths."""
    n = FEEDER_BUSES[name][scale]
    rng = substream(seed, name)
    lengths = np.round(0.05 + 0.45 * rng.random(n - 1), 4)
    if name == "feeder-chain":
        parents = np.arange(n - 1)
    else:
        parents = (rng.random(n - 1) * np.arange(1, n)).astype(np.int64)
    ids = [f"b{i:06d}" for i in range(n)]
    buses = tuple(Bus(i) for i in ids)
    lines = tuple(
        Line(f"l{i:06d}", ids[int(p)], ids[i], float(w))
        for i, p, w in zip(range(1, n), parents, lengths)
    )
    return FeederContext(name, seed, buses, lines)


def op_feeder(ctx: FeederContext, j: int, tracer):
    with tracer.span("topology.construct"):
        topo = NetworkTopology(buses=ctx.buses, lines=ctx.lines, source=ctx.buses[0].id)
    with tracer.span("topology.shortest_path_tree"):
        dist, _ = shortest_path_tree(topo)
    with tracer.span("topology.assign_zones"):
        zones = assign_zones(dist, topo.lines, DEMO_ZONES)
    with tracer.span("topology.build_hierarchy"):
        hierarchy = build_hierarchy(topo)
    with tracer.span("phases.allocate"):
        allocation = allocate(
            topo, hierarchy, zones, DEMO_PHASE_BASE, substream(ctx.seed, ctx.name, j)
        )
    with tracer.span("phases.consistency_violations"):
        violations = consistency_violations(topo, allocation, dist)
    return hierarchy, allocation, violations


def check_feeder(ctx: FeederContext, out) -> tuple[str, list[str], dict]:
    hierarchy, allocation, violations = out
    problems = []
    position = {b: i for i, b in enumerate(hierarchy.ramification_set)}
    late = [c for c, p in hierarchy.parent.items() if position[p] >= position[c]]
    if late:
        problems.append(f"{len(late)} hierarchy parents do not precede their child")
    if violations:
        problems.append(f"consistency violations on {len(violations)} lines")
    if len(allocation) != len(ctx.buses):
        problems.append(f"{len(ctx.buses) - len(allocation)} buses without a configuration")
    parts = list(hierarchy.ramification_set)
    parts += [allocation[b.id].index for b in ctx.buses]
    return _digest(parts), problems, {"ramification_nodes": len(hierarchy.ramification_set)}


@dataclass(frozen=True)
class Workload:
    name: str
    setup: object
    op: object
    check: object
    buses: object  # buses per round, from the context
    round: int = 1  # operations per round: a round is what the metrics time
    warm_up: object = None  # untimed warm-up; None repeats round 0 and compares digests


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fit-demo",
            setup_fit,
            op_fit,
            check_fit,
            lambda ctx: len(ctx.reference.topology.buses),
            len(FIT_MODELS),
            warm_fit,
        ),
        Workload(
            "generate-demo",
            setup_generate,
            op_generate,
            check_generate,
            lambda ctx: len(ctx.demo.topology.buses),
        ),
        Workload(
            "feeder-chain",
            lambda seed, scale, workdir, tracer: setup_feeder("feeder-chain", seed, scale),
            op_feeder,
            check_feeder,
            lambda ctx: len(ctx.buses),
        ),
        Workload(
            "feeder-tree",
            lambda seed, scale, workdir, tracer: setup_feeder("feeder-tree", seed, scale),
            op_feeder,
            check_feeder,
            lambda ctx: len(ctx.buses),
        ),
    )
}
