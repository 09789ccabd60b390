"""Benchmark-local reader for the demo reference that ``write_demo_reference``
writes: ``topology.json`` plus the phases, loads, reliability and lines CSVs.

The package has no CSV readers yet, so the benchmark parses the files itself
and checks them against tables it holds in memory (see ``compare``).
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass

import numpy as np

from gridsynth.phases import PhaseConfig
from gridsynth.topology import Bus, Line, NetworkTopology


@dataclass
class Reference:
    topology: NetworkTopology
    phases: dict[str, PhaseConfig]
    loads: dict[str, np.ndarray]
    caidi: dict[str, float]
    caifi: dict[str, int]
    r1: dict[str, float]
    rho: dict[str, float]


def _rows(path: str) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def read_reference(directory: str) -> Reference:
    with open(os.path.join(directory, "topology.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    topology = NetworkTopology(
        buses=tuple(
            Bus(r["id"], r.get("x"), r.get("y"), bool(r.get("no_load", False)))
            for r in doc["buses"]
        ),
        lines=tuple(
            Line(r["id"], r["from"], r["to"], float(r["length_km"])) for r in doc["lines"]
        ),
        source=doc["source"],
    )
    phase_rows = _rows(os.path.join(directory, "phases.csv"))
    load_rows = _rows(os.path.join(directory, "loads.csv"))
    rel_rows = _rows(os.path.join(directory, "reliability.csv"))
    line_rows = _rows(os.path.join(directory, "lines.csv"))
    return Reference(
        topology=topology,
        phases={r["bus_id"]: PhaseConfig.from_name(r["phase"]) for r in phase_rows},
        loads={
            r["bus_id"]: np.array([float(r["p_kw_a"]), float(r["p_kw_b"]), float(r["p_kw_c"])])
            for r in load_rows
        },
        caidi={r["bus_id"]: float(r["caidi_hours"]) for r in rel_rows},
        caifi={r["bus_id"]: int(r["caifi_count"]) for r in rel_rows},
        r1={r["line_id"]: float(r["r1_ohm_per_km"]) for r in line_rows},
        rho={r["line_id"]: float(r["rho"]) for r in line_rows},
    )


def _as_written(x: float) -> float:
    """The value a reference CSV holds for ``x`` (six decimals)."""
    return float(f"{x:.6f}")


def compare(ref: Reference, topology: NetworkTopology, network) -> list[str]:
    """Mismatches between what was read and the in-memory tables.

    ``network`` is the demo network drawn on ``write_demo_reference``'s own
    substreams, so it holds exactly the values that were written.
    """
    problems = []
    if ref.topology != topology:
        problems.append("topology.json differs from the demo topology")
    expected = {
        "phases": network.allocation,
        "loads": {b: [_as_written(x) for x in d.p_kw] for b, d in network.demands.items()},
        "caidi": {b: _as_written(x) for b, x in network.caidi.items()},
        "caifi": dict(network.caifi),
        "r1": {l: _as_written(p.r1_ohm_per_km) for l, p in network.lines.items()},
        "rho": {l: _as_written(p.rho) for l, p in network.lines.items()},
    }
    read = {
        "phases": ref.phases,
        "loads": {b: list(v) for b, v in ref.loads.items()},
        "caidi": ref.caidi,
        "caifi": ref.caifi,
        "r1": ref.r1,
        "rho": ref.rho,
    }
    for table, want in expected.items():
        got = read[table]
        if got.keys() != want.keys():
            problems.append(f"{table}: ids differ from the written table")
            continue
        bad = [k for k in want if got[k] != want[k]]
        if bad:
            problems.append(f"{table}: {len(bad)} values differ, first {bad[0]!r}")
    return problems
