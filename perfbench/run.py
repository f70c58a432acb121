"""graphmotive benchmark: seeded, checked `gm` workloads.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 40 --trace 0

Runs from the root of a source checkout and measures the package in `src/`.
A run repeats passes for about `--seconds` seconds; each pass is a fresh
Python process with a fresh, empty GRAPHMOTIVE_CACHE and freshly relabeled
inputs (see workloads.py), and it checks every answer.  Each metric is the
median over the run's passes.

--trace 0 prints the end-to-end metrics: wall_s (first request to last
checked answer), setup_s (process launch until numpy and graphmotive are
imported and the workload's fields are built) and peak_rss_mb.
--trace 1 alternates untraced and traced passes and prints the per-layer
metrics of spans.layer_metrics plus trace.overhead_ratio (traced wall time
over untraced wall time).

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  The lines before it give fail_ratio (failed over
attempted requests), the answer checksum, the program-reported evaluation
total, and each metric by name with its unit.  Scratch files live in a
directory inside the checkout that is removed before exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUN_LIMIT_S = 170  # a run must end within 180 s, whatever a pass does

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
LAYER_UNITS = {
    "trace.overhead_ratio": "ratio",
    "cache.hit_ratio": "ratio",
    "matroids.yield": "ratio",
}


def layer_unit(name: str) -> str:
    if name in LAYER_UNITS:
        return LAYER_UNITS[name]
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(".s") or name.endswith("self_s"):
        return "s"
    return "count"


def run_pass(workdir: str, workload: str, seed: int, index: int, trace: bool, deadline: float) -> dict:
    """One pass in a fresh interpreter; returns its result with setup_s."""
    pdir = os.path.join(workdir, f"pass{index}")
    os.makedirs(os.path.join(pdir, "cache"))
    requests = workloads.build_requests(workload, seed, index)
    for req in requests:
        for name, text in req.files.items():
            with open(os.path.join(pdir, name), "w", encoding="utf-8") as fh:
                fh.write(text)
    spec = {
        "src": SRC,
        "trace": trace,
        "fields": workloads.field_orders(requests),
        "requests": [{"id": r.id, "argv": list(r.argv)} for r in requests],
        "out": os.path.join(pdir, "result.json"),
        "spans_out": os.path.join(pdir, "spans.json"),
    }
    spec_path = os.path.join(pdir, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    env = dict(os.environ, GRAPHMOTIVE_CACHE=os.path.join(pdir, "cache"))
    launch = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), spec_path],
        cwd=pdir,
        env=env,
        stdout=subprocess.DEVNULL,
        timeout=max(deadline - launch, 1.0),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"pass {index} exited with code {proc.returncode}")
    with open(spec["out"], "r", encoding="utf-8") as fh:
        result = json.load(fh)
    result["setup_s"] = result["ready"] - launch
    if trace:
        with open(spec["spans_out"], "r", encoding="utf-8") as fh:
            result["layers"] = spans.layer_metrics(json.load(fh))
    shutil.rmtree(pdir)
    return result


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    os.makedirs(os.path.join(ROOT, ".perfbench-tmp"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=os.path.join(ROOT, ".perfbench-tmp"))
    plain, traced = [], []
    try:
        start = time.monotonic()
        deadline = start + RUN_LIMIT_S
        index = 0
        while True:
            t0 = time.monotonic()
            plain.append(run_pass(workdir, workload, seed, index, False, deadline))
            if trace:
                traced.append(run_pass(workdir, workload, seed, index, True, deadline))
            index += 1
            step = time.monotonic() - t0
            # start another pass only if it should end within the run length
            if time.monotonic() - start + step > seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.join(ROOT, ".perfbench-tmp"))
        except OSError:
            pass  # another run is still using it

    outcomes = [o for p in plain + traced for o in p["outcomes"]]
    failed = sum(not o["ok"] for o in outcomes)
    sums = {workloads.checksum((o["id"], o["answer"]) for o in p["outcomes"]) for p in plain + traced}
    if trace:
        names = list(traced[0]["layers"])
        metrics = {n: statistics.median(p["layers"][n] for p in traced) for n in names}
        metrics["trace.overhead_ratio"] = statistics.median(p["wall_s"] for p in traced) / statistics.median(
            p["wall_s"] for p in plain
        )
        metrics = {n: {"value": v, "unit": layer_unit(n)} for n, v in metrics.items()}
    else:
        metrics = {
            n: {"value": statistics.median(p[n] for p in plain), "unit": u} for n, u in END_TO_END_UNITS.items()
        }
    return {
        "passes": len(plain) + len(traced),
        "attempted": len(outcomes),
        "failed": failed,
        "checksum": sorted(sums),
        "evaluations": sum(o["evals"] for o in outcomes),
        "failures": sorted({o["id"] for o in outcomes if not o["ok"]}),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "graphmotive", "__init__.py")):
        print(f"error: no graphmotive sources under {SRC}", file=sys.stderr)
        return 2
    res = run(args.workload, args.seed, args.seconds, bool(args.trace))
    attempted, failed = res["attempted"], res["failed"]
    print(
        f"workload={args.workload} seed={args.seed} passes={res['passes']} "
        f"fail_ratio={failed / attempted:.6f} (failed/attempted requests) "
        f"checksum={','.join(res['checksum'])} evaluations={res['evaluations']}"
        + (f" failures={','.join(res['failures'])}" if res["failures"] else "")
    )
    for name, m in res["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": res["metrics"]}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
