"""Run a gridsynth benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fit-demo --seed 1 --seconds 25 --trace 0

Run it from the repository root. ``--workload all`` runs the four workloads one
after another. With ``--trace 0`` every round runs untraced and the result
line carries the end-to-end metrics; with ``--trace 1`` even-numbered rounds
are traced, odd ones are not, and the result line carries the per-layer
metrics, including the tracing overhead between the two. Metric
names, units and directions are those of ``BENCHMARK.json``; ``README.md``
beside this file defines them.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The lines before it
are a readable report. Spans of traced runs, and the output digests used to
check that a seed always gives the same outputs, go to ``.perfbench/`` under
the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import glob
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
import warnings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".perfbench")
# The machine is shared: identical code runs up to 1.8 times slower while
# other tenants are busy, for periods longer than a run. Gated times are
# therefore the fastest of many repeats, divided by the fastest pass of a
# fixed calibration loop of interpreter and small-array work timed between
# operations; over 25 s windows that ratio spread a few percent where the
# plain median spread 15-23 %. CALIBRATION_REF_MS is the loop's fastest pass
# on the reference machine (2 cores at 2.1 GHz, Python 3.11.7, numpy 2.4.6),
# so gated times read as milliseconds there.
CALIBRATION_REF_MS = 4.2
CALIBRATION_EVERY_S = 0.25

# Set-up runs at least SETUP_REPEATS times and until SETUP_SECONDS are spent
# (at most 50 times); setup_s is the fastest repeat over the slowdown, for the
# same reason as the round time.
SETUP_REPEATS = 5
SETUP_SECONDS = 1.0


def _median(values, default=0.0) -> float:
    return float(statistics.median(values)) if values else default


def _calibration_ms() -> float:
    """One timed pass of the calibration loop, with garbage collection off so
    that the program's live objects do not change its cost."""
    import numpy as np

    x = np.linspace(0.5, 2.0, 8)
    acc = 0.0
    table = {}
    gc.disable()
    try:
        start = time.perf_counter()
        for i in range(2000):
            acc += float(np.log(x * (1.0 + 1e-3 * i)).sum())
            acc += math.lgamma(1.0 + i % 13)
            table[i % 61] = acc
        return (time.perf_counter() - start) * 1e3
    finally:
        gc.enable()


class Calibration:
    """Calibration passes, timed at most every CALIBRATION_EVERY_S."""

    def __init__(self) -> None:
        self.times_ms: list[float] = []
        self._last = -math.inf

    def tick(self) -> None:
        if time.perf_counter() - self._last >= CALIBRATION_EVERY_S:
            self.times_ms.append(_calibration_ms())
            self._last = time.perf_counter()

    def slowdown(self) -> float:
        return min(self.times_ms) / CALIBRATION_REF_MS


def _code_version() -> str:
    """Hash of the package and benchmark sources: digests are compared only
    between runs of the same code."""
    h = hashlib.sha256()
    for path in sorted(
        glob.glob(os.path.join(ROOT, "src", "gridsynth", "*.py"))
        + glob.glob(os.path.join(ROOT, "perfbench", "*.py"))
    ):
        with open(path, "rb") as fh:
            h.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def _recorded_digest(key: str, digest: str) -> str:
    """Record ``digest`` under ``key`` unless a digest is already recorded
    there; return the one on record."""
    path = os.path.join(OUT, "digests.json")
    try:
        with open(path, encoding="utf-8") as fh:
            store = json.load(fh)
    except FileNotFoundError:
        store = {}
    if key not in store:
        store[key] = digest
        os.makedirs(OUT, exist_ok=True)
        with open(path + ".tmp", "w", encoding="utf-8") as fh:
            json.dump(store, fh, indent=1, sort_keys=True)
        os.replace(path + ".tmp", path)
    return store[key]


def _span_totals(spans, key: int) -> tuple[dict[str, float], float, float]:
    """Seconds per span name within one round (or one set-up, keyed by a
    negative number), plus the root spans' length and the part their direct
    children cover."""
    totals: dict[str, float] = {}
    roots = {}
    covered = 0.0
    for sid, parent, name, start, end, span_key in spans:
        if span_key != key:
            continue
        seconds = (end - start) / 1e9
        totals[name] = totals.get(name, 0.0) + seconds
        if parent is None:
            roots[sid] = seconds
    for sid, parent, name, start, end, span_key in spans:
        if span_key == key and parent in roots:
            covered += (end - start) / 1e9
    return totals, sum(roots.values()), covered


def _percentile(values: list[float], p: float) -> float:
    """Linear-interpolated percentile of a non-empty list."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _round_time(rounds: list[dict]) -> float:
    """The sum, over the operations of a round, of each one's fastest wall
    time."""
    size = len(rounds[0]["ops"])
    return sum(min(rd["ops"][k]["wall_s"] for rd in rounds) for k in range(size))


def _fit_medians(rounds: list[dict]) -> tuple[float, float]:
    """Median over rounds of the median ESS and of the median R-hat over all
    scalars the round fitted."""
    ess, rhat = [], []
    for rd in rounds:
        fits = rd["stats"].get("fits", {}).values()
        if fits:
            ess.append(statistics.median([e for f in fits for e in f["ess"]]))
            rhat.append(statistics.median([r for f in fits for r in f["rhat"]]))
    return _median(ess), _median(rhat)


def end_to_end(
    rounds: list[dict], setup_times: list[float], calibration: Calibration, buses: int
) -> dict:
    plain = [rd for rd in rounds if not rd["traced"]]
    walls = [rd["wall_s"] for rd in plain]
    slowdown = calibration.slowdown()
    round_s = _round_time(plain) / slowdown
    ops = [op for rd in rounds for op in rd["ops"]]
    metrics = {
        "setup_s": min(setup_times) / slowdown,
        "round_ms": round_s * 1e3,
        "round_ms_p50": _percentile(walls, 50) * 1e3,
        "round_ms_p90": _percentile(walls, 90) * 1e3,
        "slowdown": slowdown,
        "rounds_per_s": len(walls) / sum(walls),
        "buses_per_s": buses / round_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "error_rate": sum(1 for op in ops if op["problems"]) / len(ops),
    }
    ess, rhat = _fit_medians(plain)
    if ess:
        metrics["ess_per_s"] = ess / round_s
        metrics["rhat_median"] = rhat
    else:
        # every round is one exact, independent draw: one effective sample
        # per round, and R-hat is 1 by construction
        metrics["ess_per_s"] = 1.0 / round_s
        metrics["rhat_median"] = 1.0
    return metrics


def per_layer(rounds: list[dict], spans, setup_count: int) -> dict:
    from workloads import FIT_MODELS

    rows: list[dict[str, float]] = []
    for rd in rounds:
        if not rd["traced"] or any(op["problems"] for op in rd["ops"]):
            continue
        totals, root, covered = _span_totals(spans, rd["g"])
        calls = {k: v[0] for k, v in rd["counters"].items()}
        secs = {k: v[1] / 1e9 for k, v in rd["counters"].items()}
        row = {
            "inference.self_s": totals.get("inference.fit", 0.0) - secs.get("inference.logpost", 0.0),
            "inference.logpost_evals": calls.get("inference.logpost", 0),
            "distributions.logdensity_s": secs.get("distributions.logdensity", 0.0),
            "distributions.logdensity_calls": calls.get("distributions.logdensity", 0),
            "distributions.sampler_ms": secs.get("distributions.sampler", 0.0) * 1e3,
            "distributions.sampler_calls": calls.get("distributions.sampler", 0),
            "topology.ramification_nodes": rd["stats"]["ramification_nodes"],
            "unaccounted_pct": 100.0 * (root - covered) / root,
        }
        for name in ("construct", "shortest_path_tree", "assign_zones", "build_hierarchy"):
            row[f"topology.{name}_s"] = totals.get(f"topology.{name}", 0.0)
        for name in (
            "lines.sample_line",
            "lines.attach_zabc",
            "loads.sample_demand",
            "reliability.sample",
            "phases.allocate",
            "phases.consistency_violations",
        ):
            row[f"{name}_ms"] = totals.get(name, 0.0) * 1e3
        fits = rd["stats"].get("fits", {})
        for model in FIT_MODELS:
            wall = totals.get(model, 0.0)
            f = fits.get(model)
            row[f"{model}.wall_s"] = wall
            row[f"{model}.proposals"] = f["proposals"] if f else 0
            row[f"{model}.us_per_proposal"] = wall * 1e6 / f["proposals"] if f else 0.0
            row[f"{model}.ess_min"] = min(f["ess"]) if f else 0.0
            row[f"{model}.rhat_max"] = max(f["rhat"]) if f else 0.0
            row[f"{model}.accept_mean"] = f["accept_mean"] if f else 0.0
        rows.append(row)
    metrics = {k: _median([row[k] for row in rows]) for k in (rows[0] if rows else {})}
    setup = [_span_totals(spans, -1 - r)[0] for r in range(setup_count)]
    for name in ("datasets.write_demo_reference", "bench.read_reference"):
        metrics[f"{name}_s"] = _median([t.get(name, 0.0) for t in setup])
    traced = _round_time([rd for rd in rounds if rd["traced"]])
    metrics["trace_overhead_pct"] = 100.0 * (traced / _round_time([rd for rd in rounds if not rd["traced"]]) - 1.0)
    return metrics


def _run_round(wl, ctx, g: int, tracer, traced: bool, calibration: Calibration) -> dict:
    """Run the operations of round ``g`` and check their outputs, with a
    calibration pass between operations now and then."""
    from spans import NullTracer, instrument

    spans = tracer if traced else NullTracer()
    tracer.round = g
    ops = []
    with instrument(tracer) if traced else contextlib.nullcontext():
        for k in range(wl.round):
            j = g * wl.round + k
            op = {"j": j, "problems": [], "digest": None, "stats": {}}
            start = time.perf_counter()
            try:
                with spans.span("op"):
                    out = wl.op(ctx, j, spans)
            except Exception as exc:  # a failed operation is counted, not fatal
                out = None
                op["problems"].append(f"{type(exc).__name__}: {exc}")
                traceback.print_exc(file=sys.stderr)
            op["wall_s"] = time.perf_counter() - start
            if out is not None:
                op["digest"], problems, op["stats"] = wl.check(ctx, out)
                op["problems"] += problems
            ops.append(op)
            calibration.tick()
    stats: dict = {}
    for op in ops:
        fits = {**stats.get("fits", {}), **op["stats"].get("fits", {})}
        stats.update(op["stats"])
        if fits:
            stats["fits"] = fits
    return {
        "g": g,
        "traced": traced,
        "ops": ops,
        "wall_s": sum(op["wall_s"] for op in ops),
        "stats": stats,
        "counters": tracer.take_counters() if traced else {},
        "digest": "-".join(str(op["digest"]) for op in ops),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, scale: str) -> dict:
    from spans import NullTracer, Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[workload]
    tracer = Tracer() if trace else NullTracer()

    calibration = Calibration()
    setup_times: list[float] = []
    r = 0
    while r < SETUP_REPEATS or (sum(setup_times) < SETUP_SECONDS and r < 50):
        tracer.round = -1 - r  # set-up spans are keyed by negative numbers
        workdir = os.path.join(OUT, "work", f"{workload}-{os.getpid()}-{r}")
        start = time.perf_counter()
        with tracer.span("setup"):
            ctx = wl.setup(seed, scale, workdir, tracer)
        setup_times.append(time.perf_counter() - start)
        calibration.tick()
        r += 1

    if wl.warm_up is None:
        warm_digest = _run_round(wl, ctx, 0, NullTracer(), False, calibration)["digest"]
    else:
        warm_digest = wl.warm_up(ctx)

    rounds: list[dict] = []
    min_rounds = 2 if trace else 1
    deadline = time.perf_counter() + seconds
    while True:
        typical = _median([rd["wall_s"] for rd in rounds])
        if len(rounds) >= min_rounds and time.perf_counter() + typical > deadline:
            break
        g = len(rounds)
        rounds.append(_run_round(wl, ctx, g, tracer, trace and g % 2 == 0, calibration))

    first = rounds[0]
    digest = _digest_of(first["digest"])
    if warm_digest is not None and first["digest"] != warm_digest:
        first["ops"][0]["problems"].append("round 0 gave other outputs than its warm-up")
    key = f"{_code_version()}:{workload}:{seed}:{scale}"
    recorded = _recorded_digest(key, digest)
    if recorded != digest:
        first["ops"][0]["problems"].append(f"digest {digest} differs from {recorded}, recorded at this seed")

    result = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "digest": digest,
        "rounds": rounds,
        "e2e": end_to_end(rounds, setup_times, calibration, wl.buses(ctx)),
    }
    if trace:
        result["layers"] = per_layer(rounds, tracer.spans, len(setup_times))
        summary = [{k: rd[k] for k in ("g", "traced", "wall_s", "counters")} for rd in rounds]
        tracer.write(os.path.join(OUT, "spans", f"{workload}-seed{seed}.json"), summary)
    return result


def _digest_of(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# Workload-specific names for the end-to-end figures, printed in
# the report: (report name, metric, unit, factor).
_REPORT = {
    "fit-demo": [
        ("fit_s", "round_ms", "s", 1e-3),
        ("fit_s_p50", "round_ms_p50", "s", 1e-3),
        ("ess_per_s", "ess_per_s", "1/s", 1),
        ("rhat_median", "rhat_median", "1", 1),
    ],
    "generate-demo": [
        ("networks_per_s", "rounds_per_s", "1/s", 1),
        ("network_ms", "round_ms", "ms", 1),
        ("network_ms_p50", "round_ms_p50", "ms", 1),
        ("network_ms_p90", "round_ms_p90", "ms", 1),
        ("buses_per_s", "buses_per_s", "1/s", 1),
    ],
    "feeder-chain": [
        ("buses_per_s", "buses_per_s", "1/s", 1),
        ("feeder_ms", "round_ms", "ms", 1),
        ("feeder_ms_p50", "round_ms_p50", "ms", 1),
    ],
}
_REPORT["feeder-tree"] = _REPORT["feeder-chain"]
_COMMON = [
    ("setup_s", "setup_s", "s", 1),
    ("slowdown", "slowdown", "1", 1),
    ("peak_rss_mb", "peak_rss_mb", "MB", 1),
    ("error_rate", "error_rate", "1", 1),
]


def report(result: dict, spec: dict) -> dict:
    """Print the readable report and return the result line."""
    ops = [op for rd in result["rounds"] for op in rd["ops"]]
    failed = [op for op in ops if op["problems"]]
    print(
        f"# {result['workload']} seed {result['seed']} trace {int(result['trace'])}: "
        f"{len(result['rounds'])} rounds of {len(result['rounds'][0]['ops'])} operations, "
        f"{len(failed)} failed, output_digest {result['digest']}"
    )
    for op in failed[:5]:
        print(f"#   op {op['j']} failed: {'; '.join(op['problems'])}")
    e2e = result["e2e"]
    for label, key, unit, factor in _REPORT[result["workload"]] + _COMMON:
        print(f"{label} {e2e[key] * factor:.6g} {unit}")
    if result["trace"]:
        chosen, values = spec["per_layer"], result["layers"]
    else:
        chosen, values = spec["end_to_end"], e2e
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in chosen}
    if result["trace"]:
        for name, m in metrics.items():
            print(f"{name} {m['value']:.6g} {m['unit']}")
    return {"correct": not failed, "attempted": len(ops), "failed": len(failed), "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "tiny"), default="full", help="tiny: sizes for the tests"
    )
    args = parser.parse_args(argv)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    package = os.path.join(ROOT, "src", "gridsynth")
    if not os.path.isdir(package) or not os.path.isfile(spec_path):
        print(f"perfbench: needs {package} and {spec_path}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    chosen = names if args.workload == "all" else [args.workload]
    if not set(chosen) <= set(names):
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(names)} or all")

    warnings.simplefilter("ignore")  # the fits warn on every unconverged scalar
    status = 0
    for workload in chosen:
        result = run(workload, args.seed, args.seconds, bool(args.trace), args.scale)
        line = report(result, spec)
        print(json.dumps(line), flush=True)
        status = status or int(not line["correct"])
    return status


if __name__ == "__main__":
    sys.exit(main())
