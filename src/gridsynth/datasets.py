"""Shipped synthetic reference dataset: a branching demo feeder plus
attribute tables generated from documented ground-truth parameters.

The demo feeder is a 136-bus radial network: an 18-bus trunk with nine
laterals, each lateral carrying a sub-branch and a spur. Reference attribute
tables (phases, loads, reliability, line parameters) are one network that
``generate.network`` draws from the ground-truth constants below
(``demo_draw``), the generator that also draws from a fitted model, so
fitting them back is a closed-loop exercise.
"""

from __future__ import annotations

import csv
import os

import numpy as np

from .distributions import substream
from .generate import Feeder, network
from .topology import Bus, Line, NetworkTopology, save_topology

__all__ = [
    "DEMO_ZONES",
    "DEMO_PHASE_BASE",
    "DEMO_LOAD",
    "DEMO_CAIDI",
    "DEMO_CAIFI",
    "DEMO_LINE",
    "demo_draw",
    "demo_topology",
    "write_demo_reference",
]

DEMO_ZONES = 5

# Zone rows over (A, B, C, AB, BC, CA, ABC): three-phase service thins out
# with distance from the substation.
DEMO_PHASE_BASE = np.array(
    [
        [0.10, 0.10, 0.10, 0.14, 0.12, 0.14, 0.30],
        [0.12, 0.11, 0.11, 0.15, 0.13, 0.17, 0.21],
        [0.14, 0.13, 0.13, 0.16, 0.14, 0.19, 0.11],
        [0.15, 0.14, 0.14, 0.17, 0.14, 0.20, 0.06],
        [0.16, 0.15, 0.15, 0.18, 0.15, 0.18, 0.03],
    ]
)

DEMO_LOAD = {
    "p_pot_mono": 2.0,
    "p_pot_bi": 5.0,
    "p_pot_tri": 12.0,
    "delta_bi": 0.6,
    "delta_tri": np.array([0.40, 0.35, 0.25]),
    "sigma_p": 0.3,
}

DEMO_CAIDI = {
    "hurdle_p": np.array([0.30, 0.40, 0.50, 0.60, 0.70]),
    "weib_shape": np.array([1.6, 1.4, 1.2, 1.1, 0.9]),
    "weib_scale": np.array([1.5, 2.0, 2.5, 3.0, 3.5]),
}

DEMO_CAIFI = {
    "freq_mean": np.array([0.6, 0.9, 1.2, 1.6, 2.0]),
    "dispersion": 1.5,
}

DEMO_LINE = {
    "r_means": np.array([0.20, 0.45, 0.80]),
    "r_cv": 0.18,
    "r_weights": np.array(
        [
            [0.62, 0.20, 0.18],
            [0.55, 0.22, 0.23],
            [0.45, 0.22, 0.33],
            [0.35, 0.22, 0.43],
            [0.25, 0.20, 0.55],
        ]
    ),
    "rho_means": np.array([0.9, 1.5, 2.3]),
    "rho_cv": 0.15,
    "rho_weights": np.array(
        [
            [0.50, 0.30, 0.20],
            [0.45, 0.30, 0.25],
            [0.40, 0.30, 0.30],
            [0.30, 0.32, 0.38],
            [0.22, 0.30, 0.48],
        ]
    ),
}


def demo_draw() -> dict:
    """The ground truth as one draw in the fits' parameter names, the format
    ``generate.network`` reads."""
    draw = {**DEMO_LOAD, **DEMO_CAIDI, **DEMO_CAIFI}
    draw.update((k, DEMO_LINE[k]) for k in ("r_means", "r_cv", "rho_means", "rho_cv"))
    for z in range(1, DEMO_ZONES + 1):
        draw[f"base_z{z}"] = DEMO_PHASE_BASE[z - 1]
        draw[f"r_weights_z{z}"] = DEMO_LINE["r_weights"][z - 1]
        draw[f"rho_weights_z{z}"] = DEMO_LINE["rho_weights"][z - 1]
    return draw


def demo_topology() -> NetworkTopology:
    """Deterministic 136-bus branching feeder (18-bus trunk, nine laterals)."""
    # (bus, parent) in the order the segment lengths are drawn
    trunk = [f"t{i:02d}" for i in range(1, 19)]
    edges = list(zip(trunk, ["sub", *trunk[:-1]]))
    for k, anchor in enumerate(trunk[1::2], start=1):
        lateral = [f"f{k}{j:02d}" for j in range(1, 8)]
        sub_branch = [f"s{k}{j:02d}" for j in range(1, 5)]
        spur = [f"p{k}{j:02d}" for j in range(1, 3)]
        edges += zip(lateral, [anchor, *lateral[:-1]])
        edges += zip(sub_branch, [lateral[2], *sub_branch[:-1]])
        edges += zip(spur, [lateral[4], *spur[:-1]])
    no_load = {trunk[5], trunk[11]}
    # np.round (scale, round to integer, unscale) gives the lengths that
    # round(x, 4) gives on these fixed draws; tests/test_datasets.py checks it
    u = substream(811, "demo-topology").random(len(edges))
    lengths = np.round(0.25 + 0.30 * u, 4).tolist()
    buses = (Bus("sub"), *(Bus(bus_id, no_load=bus_id in no_load) for bus_id, _ in edges))
    lines = tuple(
        Line(f"l_{bus_id}", parent, bus_id, length)
        for (bus_id, parent), length in zip(edges, lengths)
    )
    return NetworkTopology(buses=buses, lines=lines, source="sub")


def write_demo_reference(out_dir: str, seed: int = 2024) -> dict[str, str]:
    """Write the demo topology and its four reference attribute tables.

    Returns the mapping of table names to file paths.
    """
    os.makedirs(out_dir, exist_ok=True)
    topo = demo_topology()
    net = network(demo_draw(), Feeder(topo, DEMO_ZONES), seed, "demo")

    paths = {
        "topology": os.path.join(out_dir, "topology.json"),
        "phases": os.path.join(out_dir, "phases.csv"),
        "loads": os.path.join(out_dir, "loads.csv"),
        "reliability": os.path.join(out_dir, "reliability.csv"),
        "lines": os.path.join(out_dir, "lines.csv"),
    }
    save_topology(topo, paths["topology"])
    _write_csv(
        paths["phases"],
        ["bus_id", "phase"],
        [[b, net.phases[b].name] for b in sorted(net.phases)],
    )
    _write_csv(
        paths["loads"],
        ["bus_id", "p_kw_a", "p_kw_b", "p_kw_c"],
        [
            [b] + [f"{x:.6f}" for x in net.demands[b].p_kw]
            for b in sorted(net.demands)
        ],
    )
    _write_csv(
        paths["reliability"],
        ["bus_id", "caidi_hours", "caifi_count"],
        [[b, f"{net.caidi[b]:.6f}", str(net.caifi[b])] for b in sorted(net.caidi)],
    )
    _write_csv(
        paths["lines"],
        ["line_id", "r1_ohm_per_km", "rho"],
        [
            [l, f"{net.lines[l].r1_ohm_per_km:.6f}", f"{net.lines[l].rho:.6f}"]
            for l in sorted(net.lines)
        ],
    )
    return paths


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    os.replace(tmp, path)
