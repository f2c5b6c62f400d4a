"""Benchmark of the distvar certification pipeline.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cli_separated --seed 0 --seconds 22 --trace 0

One process, closed loop, one op at a time.  Set-up generates the seed's
input pool and runs a warm-up op; the timed run then goes through the pool
in order, cycling, until ``--seconds`` have elapsed.  With ``--trace 0`` the
last line of standard output holds the end-to-end metrics named in
BENCHMARK.json; with ``--trace 1`` each item runs untraced and then traced,
and it holds the per-layer metrics of the traced ops.  Lines before it describe the run
(environment, outcome counts, digest); a JSON copy of everything goes to
``perfbench/results/``.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

# pinned before numpy loads: default BLAS threading is slower and noisier
# for these small matrices
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import tracer as tracing  # noqa: E402
import workloads as W  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pool", type=int, default=None,
                    help="truncate the input pool to its first N items (smoke test)")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 0 or (args.pool is not None and args.pool < 1):
        ap.error("--seed and --seconds must be >= 0 and --pool >= 1")
    return args


def load_library():
    """Import distvar from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "distvar" / "__init__.py").is_file():
        sys.exit(f"error: {src / 'distvar'} not found; run from a distvar checkout")
    sys.path.insert(0, str(src))
    import distvar

    if Path(distvar.__file__).resolve().parent != (src / "distvar").resolve():
        sys.exit(f"error: imported distvar from {distvar.__file__}, not {src}")
    return distvar


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
    }


class Run:
    """The timed loop over one pool, with the output checks."""

    def __init__(self, dv, pool):
        self.dv = dv
        self.pool = pool
        self.first = [None] * len(pool)     # payload of the first visit
        self.ops = []                       # (item index, status, seconds, traced)
        self.report_bytes = []
        self.problems = []

    def one(self, idx, tracer=None, timed=True):
        span = tracer.op(len(self.ops)) if tracer else contextlib.nullcontext()
        with span:
            t0 = time.perf_counter()
            out = W.run_op(self.dv, self.pool[idx])
            dt = time.perf_counter() - t0
        if timed:
            self.ops.append((idx, out.status, dt, tracer is not None))
        self.problems.extend(f"item {idx}: {p}" for p in W.check_outcome(out))
        if out.reported:
            self.report_bytes.append(len(out.payload))
        if self.first[idx] is None:
            self.first[idx] = out.payload
        elif self.first[idx] != out.payload:
            self.problems.append(f"item {idx}: output differs between repeats")

    def loop(self, seconds, tracer=None):
        """Ops in pool order, cycling, until ``seconds`` have elapsed; with a
        tracer every item runs untraced and then traced.  Items the window
        did not reach then run once untimed, so the digest covers the pool,
        and the first item runs again if the window repeated none."""
        modules = [m for name, m in list(sys.modules.items())
                   if name.split(".")[0] == "distvar"]
        start = time.perf_counter()
        i = 0
        while True:
            idx = i % len(self.pool)
            self.one(idx)
            if tracer:
                tracer.install(self.dv, modules)
                try:
                    self.one(idx, tracer)
                finally:
                    tracer.uninstall()
            i += 1
            elapsed = time.perf_counter() - start
            if elapsed >= seconds:
                break
        for idx in range(i, len(self.pool)):
            self.one(idx, timed=False)
        if i <= len(self.pool):
            self.one(0, timed=False)
        return elapsed


def probe_defect(dv, seed):
    """Untimed, after the window: run the op on the seed's DEFECT_PROBE
    pairs, where construct_psi is known to crash; returns outcome counts."""
    pool = W.make_pool(dv, W.DEFECT_PROBE, seed)
    return dict(sorted(Counter(W.run_op(dv, item).status for item in pool).items()))


def tally(ops):
    """Outcome counts over ops, with the raw rates."""
    n = len(ops)
    by = {}
    for _, status, _, _ in ops:
        by[status] = by.get(status, 0) + 1
    failed = sum(c for s, c in by.items() if s.startswith("error:"))
    done = max(n - failed, 1)
    return {
        "attempted": n,
        "failed": failed,
        "completed": n - failed,
        "by_status": dict(sorted(by.items())),
        "error_rate": failed / n,
        "inconclusive_rate": by.get(W.INCONCLUSIVE, 0) / done,
        "wrong_verdict_rate": by.get(W.FAIL, 0) / done,
        "no_symbol_rate": by.get(W.NO_SYMBOL, 0) / done,
    }


def latency(ops, window_s):
    """Median and tail of op latency in ms, with the tail's percentile.

    A failed op counts as missing every latency limit: it ranks after all
    completed ops, and a percentile that lands on failed ops reads as the
    whole measured window, the longest wait the run could observe.  The
    tail is the highest percentile with at least ten samples beyond it.
    """
    vals = sorted(window_s if s.startswith("error:") else dt for _, s, dt, _ in ops)
    n = len(vals)
    k = n - 11 if n > 10 else n - 1
    return 1e3 * statistics.median(vals), 1e3 * vals[k], 100.0 * (k + 1) / n


def e2e_values(setup_s, ops, elapsed, counts):
    p50, tail, _ = latency(ops, elapsed)
    return {
        "setup_s": setup_s,
        "instance_ms.p50": p50,
        "instance_ms.tail": tail,
        "instances_per_s": counts["completed"] / elapsed,
        "completed_rate": 1.0 - counts["error_rate"],
        "conclusive_rate": 1.0 - counts["inconclusive_rate"],
        "right_verdict_rate": 1.0 - counts["wrong_verdict_rate"],
        "symbol_rate": 1.0 - counts["no_symbol_rate"],
    }


def layer_values(tracer, run, names):
    """Per-layer metrics: "<trace name>.<calls|ms|self_ms>" per op, plus the
    derived quantities of Tracer.summary."""
    stats, derived = tracer.summary()
    untraced = sum(dt for _, _, dt, t in run.ops if not t)
    traced = sum(dt for _, _, dt, t in run.ops if t)
    derived["report.bytes"] = float(statistics.mean(run.report_bytes or [0]))
    derived["trace.overhead"] = traced / untraced - 1.0
    traced_names = {t[0] for t in tracing.TARGETS}
    out = {}
    for metric in names:
        if metric in derived:
            out[metric] = derived[metric]
            continue
        name, field = metric.rsplit(".", 1)
        if name not in traced_names:
            raise KeyError(f"per-layer metric {metric} names no traced function")
        out[metric] = stats.get(name, {}).get(field, 0.0)
    return out


def main(argv=None):
    args = parse_args(argv)
    wl = W.WORKLOADS[args.workload]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = declared["per_layer" if args.trace else "end_to_end"]

    t0 = time.perf_counter()
    dv = load_library()
    import_s = time.perf_counter() - t0

    # set up several times and keep the median, so that set-up time is steady
    setups = []
    warm = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        pool = W.make_pool(dv, wl, args.seed, args.pool)
        warm.append(W.run_op(dv, W.warmup_item(dv, wl)))
        setups.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setups)

    run = Run(dv, pool)
    tracer = tracing.Tracer() if args.trace else None
    elapsed = run.loop(args.seconds, tracer)
    counts = tally(run.ops)
    counts["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems = run.problems + [f"warm-up: {p}" for out in warm for p in W.check_outcome(out)]
    if len({out.payload for out in warm}) != 1:
        problems.append("warm-up output differs between repeats")
    defects = {}
    if wl.construct:
        defects["construct_psi ValueError on d >= 2 pairs"] = probe_defect(dv, args.seed)

    names = [m["name"] for m in declared]
    if tracer is None:
        values = e2e_values(setup_s, run.ops, elapsed, counts)
    else:
        values = layer_values(tracer, run, names)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    untraced_ops = [op for op in run.ops if not op[3]]
    p50, tail, pct = latency(untraced_ops, elapsed)
    details = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(),
        "pool": len(pool),
        "elapsed_s": elapsed,
        "import_s": import_s,
        "setup_repeats_s": setups,
        "tail": {"percentile": pct, "samples": len(untraced_ops)},
        "counts": counts,
        "ops": [[idx, status, 1e3 * dt, traced] for idx, status, dt, traced in run.ops],
        "digest": W.digest(run.first),
        "known_defects": defects,
        "problems": problems,
        "metrics": metrics,
    }
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        (results / f"{stem}-spans.json").write_text(json.dumps(tracer.dump()))
    (results / f"{stem}.json").write_text(json.dumps(details, indent=2, sort_keys=True))

    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
          f"pool {len(pool)}  {len(run.ops)} timed ops in {elapsed:.1f} s")
    print("environment " + json.dumps(details["environment"], sort_keys=True))
    print("outcomes " + json.dumps(counts, sort_keys=True))
    print(f"latency p50 {p50:.1f} ms, tail p{pct:.1f} {tail:.1f} ms "
          f"over {len(untraced_ops)} untraced ops")
    print(f"digest {details['digest']}")
    for name, seen in defects.items():
        print(f"known defect, untimed: {name}: {json.dumps(seen, sort_keys=True)}")
    for p in problems:
        print(f"CHECK FAILED {p}")
    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({
        "correct": not problems,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
