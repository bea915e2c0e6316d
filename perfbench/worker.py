"""Run one benchmark workload in a fresh process; started by run.py.

Set-up (import, fields, inputs, one warm-up item per shape) is timed from
`--t0`, the launcher's monotonic clock reading just before it started this
process.  With `--setup-only` the process stops there.

Otherwise the process runs a closed loop, one item at a time, round after
round, and stops at the first round boundary after `--seconds`.  Between
items, at least every 0.1 s, it times the host-speed reference
(hostspeed.py).  Each item's time is divided by the median slowdown of the
reference samples nearest to it, and set-up time by the slowdown measured
right after set-up, so the reported times do not follow the slow phases of
a shared host.  The raw times are reported beside them.  After the loop
come the output checks, the workload's once-per-run calls and its CLI
subcommand, and one JSON line on stdout.

With `--trace 1` a fixed number of rounds runs once untraced and then once
traced, so call counts repeat exactly for a seed and the ratio of the two
passes is the tracing overhead.  Traced times are raw.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

# inputs are generated for this many times the nominal rounds of a run
POOL_MARGIN = 1.5
SETUP_SPEED_SAMPLES = 7
OUTDIR = Path(__file__).resolve().parent / "out"


@dataclass
class Phase:
    times: dict = field(default_factory=dict)      # item index -> seconds
    starts: dict = field(default_factory=dict)     # item index -> perf_counter at start
    shapes: dict = field(default_factory=dict)     # item index -> shape
    wall: float = 0.0
    done: dict = field(default_factory=dict)       # item index -> (item, record)
    problems: list = field(default_factory=list)
    failed: set = field(default_factory=set)       # indices of failed items
    errors: dict = field(default_factory=dict)     # error category -> count
    pool_failed: int = 0                           # items hit by pool checks


def run_items(wl, rounds, errors_mod, tracing, seconds=None, speed=None, tr=None) -> Phase:
    """Closed loop over the items of `rounds`, one at a time.

    With `seconds`, stop at the first round boundary after that long.  With
    `speed` (a hostspeed.Sampler), sample the host speed between items.
    """
    ph = Phase()
    clock = time.perf_counter
    start = clock()
    for rnd in rounds:
        if seconds is not None and clock() - start >= seconds:
            break
        for item in rnd:
            if speed is not None:
                speed.maybe()
            if tr is not None:
                tr.item = item.index
            t = clock()
            try:
                out = wl.run(item)
            except errors_mod.LdpcLabError as exc:
                ph.times[item.index] = clock() - t
                ph.starts[item.index] = t
                ph.shapes[item.index] = item.shape
                cat = tracing.error_category(exc)
                ph.errors[cat] = ph.errors.get(cat, 0) + 1
                ph.failed.add(item.index)
                ph.problems.append(f"item {item.index} ({item.shape}): {type(exc).__name__}: {exc}")
                continue
            ph.times[item.index] = clock() - t
            ph.starts[item.index] = t
            ph.shapes[item.index] = item.shape
            ph.done[item.index] = (item, wl.keep(item, out))
    if speed is not None:
        speed.maybe()
    ph.wall = clock() - start
    if tr is not None:
        tr.item = -1
    return ph


def check_phase(wl, ph: Phase) -> None:
    """Item and pool checks; failures are added to `ph.failed`/`ph.problems`."""
    done = list(ph.done.values())
    for item, rec in done:
        found = wl.check(item, rec)
        if found:
            ph.failed.add(item.index)
            ph.problems.extend(found)
    for problem, affected in wl.check_pool(done):
        ph.problems.append(problem)
        ph.pool_failed += affected


def quantile_ms(times, q) -> float:
    import numpy as np
    return float(np.quantile(np.asarray(times), q)) * 1e3


def by_shape_ms(ph: Phase, times: dict) -> dict:
    """Per-shape item count and median time, to see where p50 and p90 fall."""
    groups: dict[str, list] = {}
    for idx, t in times.items():
        groups.setdefault(ph.shapes[idx], []).append(t)
    return {shape: {"items": len(ts), "p50_ms": quantile_ms(ts, 0.5)}
            for shape, ts in groups.items()}


def env_numeric():
    import numpy as np
    blas = {}
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        info = deps.get("blas", {})
        blas = {k: info.get(k) for k in ("name", "version", "openblas configuration") if k in info}
    except (TypeError, AttributeError):
        pass
    return {"numpy": np.__version__, "blas": blas}


def run_cli(cli, wl, outdir: Path, name: str) -> tuple[dict, list]:
    """The workload's subcommand once, in-process; returns (summary, problems)."""
    cli_out = outdir / f"{name}-cli.json"
    argv = wl.cli_argv(outdir) + ["--out", str(cli_out)]
    t = time.perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    seconds = time.perf_counter() - t
    problems = []
    if code != 0:
        problems.append(f"cli {argv[0]} exited {code}")
    else:
        try:
            problems += wl.check_cli(json.loads(cli_out.read_text()))
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"cli {argv[0]} output unreadable: {exc}")
    return {"argv": argv, "exit": code, "seconds": seconds}, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    import ldpclab
    if not Path(ldpclab.__file__).resolve().is_relative_to((root / "src").resolve()):
        print(f"ldpclab imported from {ldpclab.__file__}, not {root / 'src'}", file=sys.stderr)
        return 2
    from ldpclab import cli, errors
    import hostspeed
    import tracer as tracing
    import workloads

    tr = tracing.Tracer() if args.trace else None
    if tr is not None:
        tr.install()
    cls = workloads.WORKLOADS[args.workload]
    n_rounds = (cls.trace_rounds if args.trace
                else max(1, math.ceil(args.seconds * cls.rounds_per_s * POOL_MARGIN)))
    wl = cls(args.seed, n_rounds)
    warmed = set()
    for item in itertools.chain.from_iterable(wl.rounds):
        if item.shape not in warmed:
            warmed.add(item.shape)
            try:
                wl.run(item)
            except errors.LdpcLabError:
                pass  # reported when the item runs timed
    setup_raw_s = time.monotonic() - args.t0
    if tr is not None:
        tr.uninstall()
    setup_slowdown = hostspeed.slowdown(cls.host_kernels, SETUP_SPEED_SAMPLES)
    setup = {"setup_s": setup_raw_s / setup_slowdown, "setup_raw_s": setup_raw_s,
             "setup_slowdown": setup_slowdown}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    result = {**setup, "rounds": n_rounds}
    speed = None
    if args.trace:
        untraced = run_items(wl, wl.rounds, errors, tracing)
        tr.counts.clear()
        tr.fourier_shapes.clear()
        tr.install()
        tr.phase = "items"
        ph = run_items(wl, wl.rounds, errors, tracing, tr=tr)
        tr.uninstall()
        # outputs must not depend on tracing
        for idx, (item, rec) in untraced.done.items():
            if idx in ph.done and workloads.digest(ph.done[idx][1]) != workloads.digest(rec):
                ph.failed.add(idx)
                ph.problems.append(f"item {idx}: traced and untraced results differ")
    else:
        speed = hostspeed.Sampler(cls.host_kernels)
        ph = run_items(wl, wl.rounds, errors, tracing, args.seconds, speed)
        # outputs must not change when an item runs again
        again = run_items(wl, wl.rounds[:1], errors, tracing)
        ph.failed |= again.failed
        ph.problems += again.problems
        for idx, (item, rec) in again.done.items():
            if idx in ph.done and workloads.digest(ph.done[idx][1]) != workloads.digest(rec):
                ph.failed.add(idx)
                ph.problems.append(f"item {idx}: repeated run gave a different result")
    check_phase(wl, ph)

    if tr is not None:
        tr.phase = "extras"
        tr.install()
    t = time.perf_counter()
    try:
        extra_problems = wl.extras()
    except errors.LdpcLabError as exc:
        extra_problems = [f"extras: {type(exc).__name__}: {exc}"]
    extras_s = time.perf_counter() - t
    if tr is not None:
        tr.uninstall()
        for cat, n in ph.errors.items():
            tr.counts[f"errors.raised.{cat}"] += n
        per_layer = tracing.layer_metrics(tr, ph.wall + extras_s)
        per_layer["trace.items_per_s.traced"] = len(ph.times) / ph.wall
        per_layer["trace.items_per_s.untraced"] = len(untraced.times) / untraced.wall
        per_layer["trace.slowdown"] = ph.wall / untraced.wall
        spans_path = OUTDIR / f"{args.workload}-seed{args.seed}-spans.csv"
        tr.write_spans(spans_path)
        result["spans_file"] = str(spans_path.relative_to(root))

    # the CLI pass is reported on its own, so memory is read before it
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    cli_summary, cli_problems = run_cli(cli, wl, OUTDIR, args.workload)
    if tr is not None:
        per_layer["cli.main.s"] = cli_summary["seconds"]

    raw = ph.times
    if speed is None:
        times = raw
    else:
        times = {idx: t / speed.local(ph.starts[idx] + t / 2) for idx, t in raw.items()}
    attempted = len(times)
    result.update({
        "items": attempted,
        "wall_s": ph.wall,
        "items_per_s": attempted / sum(times.values()),
        "item_p50_ms": quantile_ms(list(times.values()), 0.5),
        "item_p90_ms": quantile_ms(list(times.values()), 0.9),
        "peak_rss_mb": peak_rss_mb,
        "raw": {"items_per_s": attempted / sum(raw.values()),
                "item_p50_ms": quantile_ms(list(raw.values()), 0.5),
                "item_p90_ms": quantile_ms(list(raw.values()), 0.9)},
        "wall_items_per_s": attempted / ph.wall,
        "host_slowdown": None if speed is None else {
            "samples": len(speed.values),
            "median": statistics.median(speed.values),
            "min": min(speed.values), "max": max(speed.values)},
        "by_shape": by_shape_ms(ph, times),
        "attempted": attempted,
        "failed": min(attempted, len(ph.failed) + ph.pool_failed),
        "errors": ph.errors,
        "problems": ph.problems + extra_problems + cli_problems,
        "extras_s": extras_s,
        "cli": cli_summary,
        "properties": wl.properties(list(ph.done.values())),
        "env": env_numeric(),
        "item_times_ms": {idx: [round(raw[idx] * 1e3, 4), round(t * 1e3, 4)]
                          for idx, t in times.items()},
        "item_starts_s": {idx: ph.starts[idx] for idx in times},
        "host_samples": None if speed is None else [speed.times, speed.values],
    })
    if tr is not None:
        result["per_layer"] = per_layer
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
