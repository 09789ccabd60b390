"""Demo reference writer: files, topology round trip and table invariants."""

import csv
import os

import pytest

from gridsynth.datasets import demo_topology, write_demo_reference
from gridsynth.phases import PhaseConfig, consistency_violations
from gridsynth.topology import compute_distances, load_topology

TABLES = ("phases", "loads", "reliability", "lines")


def _rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    return write_demo_reference(str(tmp_path_factory.mktemp("demo")), seed=7)


def test_writes_five_files(reference):
    assert set(reference) == {"topology", *TABLES}
    assert all(os.path.isfile(p) for p in reference.values())


def test_topology_round_trips(reference):
    assert load_topology(reference["topology"]) == demo_topology()


def test_written_phases_are_consistent(reference):
    topo = demo_topology()
    phases = {r["bus_id"]: PhaseConfig.from_name(r["phase"]) for r in _rows(reference["phases"])}
    assert set(phases) == set(topo.bus_ids)
    assert consistency_violations(topo, phases, compute_distances(topo)) == []


def test_written_loads_are_zero_on_absent_phases(reference):
    phases = {r["bus_id"]: PhaseConfig.from_name(r["phase"]) for r in _rows(reference["phases"])}
    loads = _rows(reference["loads"])
    assert loads
    for row in loads:
        present = phases[row["bus_id"]].phases
        for p in "ABC":
            if p not in present:
                assert float(row[f"p_kw_{p.lower()}"]) == 0.0


def _contents(paths):
    out = {}
    for name, path in paths.items():
        with open(path, "rb") as fh:
            out[name] = fh.read()
    return out


def test_same_seed_is_byte_identical_and_other_seed_differs(reference, tmp_path):
    again = _contents(write_demo_reference(str(tmp_path / "again"), seed=7))
    other = _contents(write_demo_reference(str(tmp_path / "other"), seed=8))
    first = _contents(reference)
    assert again == first
    assert other["topology"] == first["topology"]
    assert all(other[t] != first[t] for t in TABLES)
