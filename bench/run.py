"""htspec benchmark: end-to-end metrics per workload, or per-layer metrics
from a traced run.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

``--seconds`` defaults to ``run_seconds`` in ``BENCHMARK.json``.

Run from a checkout that holds ``src/htspec``; nothing needs installing.  Each
pass runs in a fresh interpreter (``bench/child.py``) with ``HTSPEC_WORKERS``,
``OPENBLAS_NUM_THREADS`` and ``OMP_NUM_THREADS`` set to the CPU count (the
program's defaults), so the caller's environment cannot change the numbers or
the edge-cov digest.  Passes run one after another, closed loop, until
``--seconds`` have passed and at least the workload's ``min_passes`` are done;
a pass's inputs depend only on the workload seed and the pass index.  The
per-pass figures are medians over all passes; the latency percentiles come
from the replicates of the first ``min_passes`` passes, a fixed count.

With ``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1`` it
runs each pass twice, untraced and traced, on the same inputs and prints the
per-layer metrics (per pass) and the tracing overhead.  The last line of the
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 1 when an output check failed and 2 when the
program is not there.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS, derive_seed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# A single-workload run must end well within three minutes.
HARD_LIMIT_S = 170.0

END_TO_END = {
    "replicates_per_s": "1/s",
    "replicate_p50_ms": "ms",
    "replicate_tail_ms": "ms",
    "cpu_ms_per_replicate": "ms",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}


def layer_unit(metric: str) -> str:
    stat = metric.rpartition(".")[2]
    if stat.endswith("_s"):
        return "s"
    if stat == "ns_per_nnz":
        return "ns"
    if stat in ("residual_max_rel", "busy_frac", "cpu_over_wall", "overhead_frac"):
        return "ratio"
    return "count"


def child_env() -> dict[str, str]:
    threads = str(os.cpu_count() or 1)
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        HTSPEC_WORKERS=threads,
        OPENBLAS_NUM_THREADS=threads,
        OMP_NUM_THREADS=threads,
    )
    return env


def run_pass(workload: str, seed: int, index: int, trace: bool, env, deadline: float) -> dict:
    """One pass in a fresh interpreter; a pass that does not report counts as failed."""
    spec = json.dumps({"workload": workload, "seed": seed, "pass": index, "trace": trace})
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), spec],
            env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - start),
        )
    except subprocess.TimeoutExpired:
        return {"checks": 1, "failed": 1, "failures": [f"pass {index} timed out"]}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"checks": 1, "failed": 1, "failures": [f"pass {index} exited with {proc.returncode}"]}
    result = json.loads(lines[-1])
    result["setup_s"] = result["setup_end"] - start
    return result


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least 10 samples beyond it, and that percentile.

    With fewer than 40 samples that percentile would lie below the 75th, which
    is no tail, so the maximum is reported as the 100th percentile instead.
    """
    xs = sorted(latencies)
    if len(xs) < 40:
        return xs[-1], 100.0
    return xs[-11], 100.0 * (len(xs) - 10) / len(xs)


def percentile_latencies(passes: list[dict], min_passes: int) -> list[float]:
    return [x for p in passes[:min_passes] for x in p["latencies_s"]]


def end_to_end(passes: list[dict], min_passes: int) -> dict[str, float]:
    latencies = percentile_latencies(passes, min_passes)
    return {
        "replicates_per_s": statistics.median(len(p["latencies_s"]) / p["wall_s"] for p in passes),
        "replicate_p50_ms": 1e3 * statistics.median(latencies),
        "replicate_tail_ms": 1e3 * tail(latencies)[0],
        "cpu_ms_per_replicate": statistics.median(1e3 * p["cpu_s"] / len(p["latencies_s"]) for p in passes),
        "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in passes),
        "setup_s": statistics.median(p["setup_s"] for p in passes),
    }


def per_layer(pairs: list[tuple[dict, dict]]) -> dict[str, float]:
    """Per-pass layer metrics averaged over the traced passes (maxima for ``*_max*``)."""
    traced = [t["layers"] for _, t in pairs]
    out = {}
    for name in traced[0]:
        values = [layers[name] for layers in traced]
        out[name] = max(values) if "_max" in name else statistics.fmean(values)
    out["trace.overhead_frac"] = statistics.median(t["wall_s"] / u["wall_s"] for u, t in pairs) - 1.0
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool, env) -> dict:
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    # A traced run reports no latency percentiles, so it needs no minimum.
    min_passes = 1 if trace else WORKLOADS[name].min_passes
    passes, pairs, index = [], [], 0
    while index < min_passes or time.monotonic() - start < seconds:
        pass_seed = derive_seed(seed, name, index)
        if trace:
            # Alternate which side goes first so neither gains from a warm cache.
            order = (False, True) if index % 2 == 0 else (True, False)
            done = {t: run_pass(name, pass_seed, index, t, env, deadline) for t in order}
            passes += [done[False], done[True]]
            if "layers" in done[True] and "wall_s" in done[False]:
                pairs.append((done[False], done[True]))
        else:
            passes.append(run_pass(name, pass_seed, index, False, env, deadline))
        index += 1
        if time.monotonic() >= deadline:
            break
    good = [p for p in passes if "wall_s" in p]
    attempted = sum(p["checks"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    if trace:
        metrics = per_layer(pairs) if pairs else {}
        units = {m: layer_unit(m) for m in metrics}
    else:
        metrics = end_to_end(good, min_passes) if good else {}
        units = END_TO_END
    return {
        "workload": name,
        "passes": passes,
        "good": good,
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0 and bool(metrics),
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
        "elapsed_s": time.monotonic() - start,
    }


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def report(res: dict, seed: int, seconds: float) -> None:
    good = res["good"]
    print(f"== {res['workload']}: seed {seed}, run {seconds:g} s, {len(res['passes'])} passes, "
          f"{sum(len(p['latencies_s']) for p in good)} replicates, {res['elapsed_s']:.1f} s elapsed")
    if good:
        prov = good[0]["provenance"]
        print(f"   commit {git_commit()}  htspec {prov['htspec']}  python {prov['python']}  "
              f"numpy {prov['numpy']}  scipy {prov['scipy']}")
        print(f"   blas {prov['blas']} ({prov['blas_threads']} threads)  nproc {os.cpu_count()}  "
              f"workers {prov['workers']}")
    for p in good:
        if "digest" in p:
            passed, total = p["verdicts"]
            print(f"   pass digest (--no-timing) {p['digest'][:16]}  report verdicts {passed}/{total} passed")
    if any("verdicts" in p for p in good):
        print("   (report verdicts are calibrated for 200 / 40 replicates; at this pass size they are shown, not checked)")
    for p in res["passes"]:
        for failure in p["failures"]:
            print(f"   FAILED: {failure}")
    for name, m in res["metrics"].items():
        extra = ""
        if name == "replicate_tail_ms":
            latencies = percentile_latencies(good, WORKLOADS[res["workload"]].min_passes)
            extra = f"  (p{tail(latencies)[1]:.1f} of {len(latencies)})"
        print(f"   {name:<42} {m['value']:>14.6g} {m['unit']}{extra}")
    frac = res["failed"] / res["attempted"] if res["attempted"] else 1.0
    print(f"   {'failed_frac':<42} {frac:>14.6g} ratio  ({res['failed']}/{res['attempted']} checks)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help="default: run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "htspec" / "__init__.py").is_file():
        print(f"bench: no program at {ROOT / 'src' / 'htspec'}", file=sys.stderr)
        return 2

    seconds = args.seconds
    if seconds is None:
        seconds = float(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    env = child_env()
    results = [run_workload(n, args.seed, seconds, bool(args.trace), env) for n in names]
    for res in results:
        report(res, args.seed, seconds)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{m}": v for r in results for m, v in r["metrics"].items()}
    correct = all(r["correct"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
