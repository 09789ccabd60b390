"""Tiny-size tests of the benchmark itself.

Run with ``python -m pytest perfbench`` from the repository root.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from reference import compare, read_reference  # noqa: E402
from spans import NullTracer  # noqa: E402
from workloads import _demo, _outside_support, draw_network  # noqa: E402

from gridsynth.datasets import demo_topology, write_demo_reference  # noqa: E402
from gridsynth.distributions import substream  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def _tiny(workload: str, trace: int):
    proc = _bench(
        "--workload", workload, "--seed", "5", "--seconds", "0.5",
        "--trace", str(trace), "--scale", "tiny",
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    digest = next(l.rsplit(" ", 1)[1] for l in lines if "output_digest" in l)
    return json.loads(lines[-1]), digest


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_emitted_and_digests_agree(workload):
    plain, plain_digest = _tiny(workload, 0)
    traced, traced_digest = _tiny(workload, 1)
    assert plain_digest == traced_digest
    for result, kind in ((plain, "end_to_end"), (traced, "per_layer")):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        units = {m["name"]: m["unit"] for m in SPEC[kind]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == units
        assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    assert all(v["value"] > 0 for v in plain["metrics"].values())


def test_reader_matches_and_detects_a_changed_value(tmp_path):
    seed = 3
    write_demo_reference(str(tmp_path), seed)
    demo = _demo(demo_topology())
    rngs = {p: substream(seed, "demo", p) for p in ("phases", "loads", "reliability", "lines")}
    expected = draw_network(demo, rngs, NullTracer())
    assert compare(read_reference(str(tmp_path)), demo.topology, expected) == []

    path = tmp_path / "lines.csv"
    rows = path.read_text().splitlines()
    line_id, r1, rho = rows[1].split(",")
    rows[1] = ",".join([line_id, f"{float(r1) + 1e-6:.6f}", rho])
    path.write_text("\n".join(rows) + "\n")
    problems = compare(read_reference(str(tmp_path)), demo.topology, expected)
    assert problems and problems[0].startswith("r1:")


def test_support_check():
    assert not _outside_support("base_z1", np.array([[0.2, 0.3, 0.5]]))
    assert _outside_support("base_z1", np.array([[0.2, 0.3, 0.6]]))
    assert _outside_support("hurdle_p", np.array([[0.5, 1.0]]))
    assert _outside_support("r_means", np.array([[0.3, 0.2, 0.9]]))
    assert _outside_support("sigma_p", np.array([0.4, np.nan]))
    assert not _outside_support("sigma_p", np.array([0.4, 2.0]))


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "generate-demo", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
