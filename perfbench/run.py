"""ldpclab benchmark: one workload per invocation, from the repository root.

    python3 perfbench/run.py --workload rlc-weight --seed 1 --seconds 25 --trace 0

Each workload runs in fresh worker processes (perfbench/worker.py, which
describes the timed loop) with BLAS/OpenMP pinned to one thread.  With
`--trace 0` the launcher starts SETUP_SAMPLES workers; all but the last
stop after set-up, and the last also runs the timed closed loop.
`setup_s` is the median set-up time over all of them; every other
end-to-end metric comes from the last worker.  All end-to-end times are
divided by the host's slowdown at the time they were taken (hostspeed.py);
the raw figures are printed and recorded beside them.
With `--trace 1` one worker runs the fixed-work traced pass and the
per-layer metrics are reported instead.

Human-readable lines (metrics with units and sample counts, input
properties, the environment fingerprint) come first; the last line of
standard output is the JSON result.  A full record is written to
perfbench/out/.  Exit code 0 means every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("rlc-weight", "ldpc-distance", "ldpc-contain", "threshold")
SETUP_SAMPLES = 5
DEADLINE_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
UNITS = {"items_per_s": "items/s", "item_p50_ms": "ms", "item_p90_ms": "ms",
         "setup_s": "s", "peak_rss_mb": "MiB"}


class WorkerError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_worker(args, deadline: float, setup_only: bool) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--t0", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=worker_env())
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError("worker exceeded the time limit")
    if proc.returncode != 0 or not out.strip():
        raise WorkerError(f"worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def fingerprint(worker_env_info: dict) -> dict:
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "system": platform.system(),
        **worker_env_info,
        "threads": {var: worker_env()[var] for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity_cpus": affinity,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "ldpclab" / "__init__.py").is_file():
        print("run from the repository root: src/ldpclab not found", file=sys.stderr)
        return 2
    outdir = HERE / "out"
    outdir.mkdir(exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S

    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(run_worker(args, deadline, True))
        res = run_worker(args, deadline, False)
    except (WorkerError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 3
    setups.append({k: res[k] for k in ("setup_s", "setup_raw_s", "setup_slowdown")})

    n = res["items"]
    if args.trace:
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in res["per_layer"].items()}
    else:
        res["setup_s"] = statistics.median(s["setup_s"] for s in setups)
        metrics = {name: {"value": res[name], "unit": unit}
                   for name, unit in UNITS.items()}
    correct = res["failed"] == 0 and not res["problems"]
    env = fingerprint(res.pop("env"))
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "setup_samples": setups, "env": env, **res}
    path = outdir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))

    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {n} items "
          f"in {res['wall_s']:.2f} s, closed loop, 1 process, 1 thread")
    if args.trace:
        print(f"# {res['rounds']} rounds untraced, then traced; spans: {res['spans_file']}")
    else:
        raw, host = res["raw"], res["host_slowdown"]
        print(f"# times divided by the host slowdown (median {host['median']:.3f}, "
              f"range {host['min']:.3f}-{host['max']:.3f}, {host['samples']} samples); "
              f"raw in brackets")
        print(f"  items_per_s  {res['items_per_s']:.4f} items/s  [{raw['items_per_s']:.4f}]  "
              f"(n={n} items; wall rate {res['wall_items_per_s']:.4f})")
        print(f"  item_p50_ms  {res['item_p50_ms']:.4f} ms  [{raw['item_p50_ms']:.4f}]  "
              f"(n={n} samples)")
        print(f"  item_p90_ms  {res['item_p90_ms']:.4f} ms  [{raw['item_p90_ms']:.4f}]  "
              f"(n={n} samples, {n - int(0.9 * n)} beyond)")
        print(f"  setup_s      {res['setup_s']:.4f} s  "
              f"[{statistics.median(s['setup_raw_s'] for s in setups):.4f}]  "
              f"(median of {len(setups)} processes)")
        print(f"  peak_rss_mb  {res['peak_rss_mb']:.1f} MiB  (1 process)")
    print(f"  failed_frac  {res['failed']}/{res['attempted']} items")
    print(f"  cli {res['cli']['argv'][0]}: exit {res['cli']['exit']}, "
          f"{res['cli']['seconds']:.3f} s")
    print(f"  properties {json.dumps(res['properties'])}")
    print(f"  env {json.dumps(env)}")
    for problem in res["problems"][:20]:
        print(f"  FAILED CHECK: {problem}")
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1


def unit_of(name: str) -> str:
    if name.endswith(".s"):
        return "s"
    if name.endswith("share") or name.endswith("hit_frac") or name.endswith("slowdown"):
        return "ratio"
    if ".trials_per_s." in name:
        return "1/s"
    if name.startswith("trace.items_per_s"):
        return "items/s"
    if name.endswith(".bytes"):
        return "B"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
