"""The generation, fit and feeder streams across code versions.

A network drawn on the demo feeder at one seed, hashed value by value, must
keep the digest recorded here: a change to any stream, or to a sampler's
arithmetic beyond the last bits, changes it. More pins hold the fits and the
feeder layers the same way: the draws and the acceptance rates of all five
sub-model fits on that network at a short ``FitConfig`` whose warm-up reaches
the proposal-covariance adaptation, and the hierarchy and allocation on a
random tree of 2000 buses.
Every value is formatted to 12 significant digits, and
tests/test_bit_identity.py holds full bits. So does the full-bit fit pin: it
hashes the bytes of every draw of the same five fits, so a change to a
draw's last bit fails it. The contract is bit for bit on one numpy build and
SIMD target; the rounding does not absorb a change of target. Across targets
numpy's exp, log, log1p, expm1 and power differ in the last bits, so fit
draws agree to about 1e-12 relative until an accept decision flips, and that
crosses 12 digits: under numpy's AVX2 kernels the fit pin's draws drift from
those under its AVX-512 kernels, and its digest changes. So the three fit
pins keep one digest per target, keyed by the target numpy dispatches
float64 ``exp`` and ``log`` to (``X86_V4`` with the AVX-512 kernels,
``X86_V3`` with ``NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL
AVX512_SPR"``), and a target with no recorded digest fails.
"""

import hashlib
import warnings

import numpy as np
import pytest

from gridsynth.datasets import DEMO_PHASE_BASE, DEMO_ZONES, demo_draw, demo_topology
from gridsynth.distributions import substream
from gridsynth.generate import Feeder, network
from gridsynth.inference import FitConfig
from gridsynth.lines import fit_line_model
from gridsynth.loads import draw_power_factor, fit_load_model
from gridsynth.phases import allocate, fit_phase_model
from gridsynth.reliability import fit_caidi, fit_caifi
from gridsynth.topology import (
    Bus,
    Line,
    NetworkTopology,
    assign_zones,
    build_hierarchy,
    shortest_path_tree,
)

SEED = 2024
# A change that alters a stream on purpose (batched draws, say) records its
# new digest here, as it records perfbench's new digests.
EXPECTED_DIGEST = "f0dc0cee8139dcd1"
# by the SIMD target of float64 exp and log (see the module docstring)
EXPECTED_FIT_DIGESTS = {"X86_V4": "dc8d288edf243561", "X86_V3": "dc561ff696e11a24"}
EXPECTED_ACCEPTANCE_DIGESTS = {"X86_V4": "3567531bb45be466", "X86_V3": "3567531bb45be466"}
EXPECTED_FIT_BITS_DIGESTS = {"X86_V4": "5d23abb5b56f3b86", "X86_V3": "1c53c716d00ef64c"}
EXPECTED_TREE_DIGEST = "77a8d19ad019ea9c"

# 150 sweeps: the adaptation first factors the proposal covariance after 100
# warm-up sweeps, so the last 10 warm-up sweeps and every kept draw use it
FIT_CONFIG = FitConfig(chains=2, warmup=110, draws=40, thin=2, seed=7)
TREE_BUSES = 2000


def demo_network(seed):
    """The demo feeder and one network on it, as ``write_demo_reference``
    draws it."""
    feeder = Feeder(demo_topology(), DEMO_ZONES)
    return feeder, network(demo_draw(), feeder, seed, "demo")


def demo_network_values(seed):
    """Every value of one network, in the order it was drawn."""
    feeder, net = demo_network(seed)
    values = [net.phases[b.id].name for b in feeder.topology.buses]
    values.append(draw_power_factor(substream(seed, "demo", "loads")))
    for demand in net.demands.values():
        values += demand.p_kw.tolist() + demand.q_kvar.tolist()
    for bus, caidi in net.caidi.items():
        values += [caidi, net.caifi[bus]]
    for params in net.lines.values():
        values += [params.r1_ohm_per_km, params.rho]
        values += [part for z in params.z_abc.ravel().tolist() for part in (z.real, z.imag)]
    return values


def stream_digest(values) -> str:
    h = hashlib.sha256()
    for value in values:
        text = value if isinstance(value, str) else format(value, ".12g")
        h.update(text.encode() + b";")
    return h.hexdigest()[:16]


def test_demo_generation_stream_is_pinned():
    assert stream_digest(demo_network_values(SEED)) == EXPECTED_DIGEST


def simd_target() -> str:
    """The SIMD target numpy runs float64 ``exp`` and ``log`` on, joined by
    ``+`` if the two differ."""
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:  # numpy before 2.0 does not report it
        return f"unknown to numpy {np.__version__}"
    info = opt_func_info(func_name="^(exp|log)$", signature="float64")
    return "+".join(sorted({loop["current"] for f in info.values() for loop in f.values()}))


def recorded(digests: dict, pin: str) -> str:
    target = simd_target()
    if target not in digests:
        pytest.fail(f"no {pin} digest is recorded for numpy SIMD target {target}")
    return digests[target]


def fit_network(feeder, net, config):
    """The five sub-model fits to one network, in draw order."""
    zones = feeder.zones
    return [
        fit_phase_model(net.phases, zones, config),
        fit_load_model({bus: d.p_kw for bus, d in net.demands.items()}, net.phases, config),
        fit_caidi(net.caidi, zones, config),
        fit_caifi(net.caifi, zones, config),
        fit_line_model(
            {lid: p.r1_ohm_per_km for lid, p in net.lines.items()},
            {lid: p.rho for lid, p in net.lines.items()},
            zones,
            config,
        ),
    ]


@pytest.fixture(scope="module")
def pinned_fits():
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "R-hat above", UserWarning)
        return fit_network(*demo_network(SEED), FIT_CONFIG)


def test_fit_streams_are_pinned(pinned_fits):
    values = []
    for posterior in pinned_fits:
        for name, draws in posterior.ensemble.draws.items():
            values += [name, *draws.ravel().tolist()]
    assert stream_digest(values) == recorded(EXPECTED_FIT_DIGESTS, "fit")


def test_fit_bits_are_pinned(pinned_fits):
    """Every draw's bytes, which the 12-digit fit pin rounds away."""
    h = hashlib.sha256()
    for posterior in pinned_fits:
        for name, draws in posterior.ensemble.draws.items():
            h.update(name.encode() + b";" + np.ascontiguousarray(draws, dtype="<f8").tobytes())
    assert h.hexdigest()[:16] == recorded(EXPECTED_FIT_BITS_DIGESTS, "full-bit fit")


def test_fit_acceptance_is_pinned(pinned_fits):
    """Each step's acceptance rate, so that bookkeeping which counts a move in
    the wrong sweep fails even where the draws hold."""
    values = []
    for posterior in pinned_fits:
        for name, rate in posterior.ensemble.diagnostics["acceptance"].items():
            values += [name, rate]
    assert stream_digest(values) == recorded(EXPECTED_ACCEPTANCE_DIGESTS, "acceptance")


def test_feeder_stream_is_pinned():
    """A random recursive tree (bus i hangs off a uniformly chosen earlier
    bus), as perfbench's feeder-tree builds it."""
    rng = substream(SEED, "feeder-tree-pin")
    lengths = np.round(0.05 + 0.45 * rng.random(TREE_BUSES - 1), 4).tolist()
    parents = (rng.random(TREE_BUSES - 1) * np.arange(1, TREE_BUSES)).astype(np.int64).tolist()
    ids = [f"b{i:04d}" for i in range(TREE_BUSES)]
    topo = NetworkTopology(
        buses=tuple(map(Bus, ids)),
        lines=tuple(
            Line(f"l{i:04d}", ids[p], ids[i], w)
            for i, p, w in zip(range(1, TREE_BUSES), parents, lengths)
        ),
        source=ids[0],
    )
    distances, _ = shortest_path_tree(topo)
    zones = assign_zones(distances, topo.lines, DEMO_ZONES)
    hierarchy = build_hierarchy(topo)
    allocation = allocate(
        topo, hierarchy, zones, DEMO_PHASE_BASE, substream(SEED, "feeder-tree-pin", "phases")
    )
    values = list(hierarchy.ramification_set)
    values += [f"{child}<{parent}" for child, parent in hierarchy.parent.items()]
    values += [allocation[b].name for b in ids]
    assert stream_digest(values) == EXPECTED_TREE_DIGEST
