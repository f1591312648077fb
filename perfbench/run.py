"""llclab benchmark: one seeded workload per invocation.

    python3 perfbench/run.py --workload twist-sweep --seed 1 --seconds 20 --trace 0

Workloads (see perfbench/README.md for why each exists): twist-sweep,
whittaker-eval, integral-pairs, building-census.  --seconds sets the size
of the fixed query list, fitted so that a whole run takes about that long
on a 2-core x86-64 machine; the list is the same for the same seed and size.

Each workload runs in fresh single-threaded child processes as a closed
loop with one client: the next query starts when the previous one has
returned.  The parent process never imports llclab.  It starts, one
after another:

* REPS untraced repetitions, each a fresh process that imports llclab,
  generates the inputs and runs the whole query list; every end-to-end
  metric is the median over the repetitions;
* with --trace 1, one untraced repetition instead, then a traced run of
  the same inputs (spans around every call the benchmark makes into
  llclab, plus cache counters) and a microbench process for the
  per-layer ns/us/ms figures.

Human-readable lines go to stdout first; the last line is one JSON
object {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones.
The exit code is 0 when the run completed, every returned value was
right and the check count matched the one fixed by the inputs; 1 when a
check count is off or a value was wrong; 2 on bad usage, under python -O
or when the llclab sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("twist-sweep", "whittaker-eval", "integral-pairs", "building-census")
# fresh processes per untraced run, each running the whole query list
REPS = {"twist-sweep": 5, "whittaker-eval": 5, "integral-pairs": 3, "building-census": 5}
CHILD_TIMEOUT = 170
# speed_probe() on an unloaded core of the 2-core x86-64 machine the
# benchmark was fitted on; timings are reported at this CPU speed
REFERENCE_PROBE_S = 0.002
# seconds of wall time between two speed probes in the query loop
PROBE_EVERY_S = 0.03


# ----- child side ------------------------------------------------------------


def _import_llclab():
    """Import llclab from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    import llclab

    if Path(llclab.__file__).resolve().parent != SRC / "llclab":
        raise ImportError(f"llclab imported from {llclab.__file__}, not from {SRC}")
    return llclab


def _setup(workload: str, seed: int, seconds: int):
    """Import llclab and generate the inputs; returns (queries, seconds)."""
    t0 = time.perf_counter()
    _import_llclab()
    import workloads

    queries = workloads.generate(workload, seed, seconds)
    return queries, time.perf_counter() - t0


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_run(args) -> dict:
    setup_probe = [speed_probe() for _ in range(3)]
    queries, setup_s = _setup(args.workload, args.seed, args.seconds)
    setup_probe += [speed_probe() for _ in range(3)]
    import llclab
    import tracing
    import workloads

    expected = sum(x.expected_checks() for x in queries)
    chk = workloads.Checks(args.workload, args.seed, args.seconds)
    tracer = tracing.Tracer() if args.traced else None
    run = workloads.make_runner(args.workload, tracing.make_ops(llclab, tracer), chk)
    times, probes = [], []
    sampler = SpeedSampler()
    clock = time.perf_counter
    t_loop = clock()
    with sampler:
        for qid, x in enumerate(queries):
            n0, p0 = len(sampler.samples), sampler.probe_s
            t0 = clock()
            if tracer is None:
                run(qid, x)
            else:
                tracer.run_query(qid, run, qid, x)
            t1 = clock()
            times.append(t1 - t0 - (sampler.probe_s - p0))
            probes.append((n0, len(sampler.samples)))
    # probes interrupt the loop but are not part of it
    wall_s = clock() - t_loop - sampler.probe_s
    samples = sampler.samples or [speed_probe()]
    # a query's speed is the mean of the probes taken while it ran, or of
    # the probes on either side of it when none was
    query_probe = []
    for n0, n1 in probes:
        near = samples[n0:n1] or samples[max(n0 - 1, 0) : n0 + 1] or samples[-1:]
        query_probe.append(statistics.fmean(near))
    out = {
        "setup_probe_s": setup_probe,
        "query_probe_s": query_probe,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "query_s": times,
        "peak_rss_mb": _peak_rss_mb(),
        "expected_checks": expected,
        "attempted": chk.attempted,
        "wrong": chk.wrong,
        "raised": chk.raised,
        "failures": chk.records,
    }
    if tracer is not None:
        out["trace"] = _trace_summary(args.workload, queries, tracer)
    return out


def _trace_summary(workload: str, queries, tracer) -> dict:
    import tracing

    caches = tracing.cache_infos()
    self_ns = tracer.self_times()
    total = tracer.query_ns() or 1
    summary = {
        "spans": len(tracer.spans),
        "self_share": {layer: self_ns.get(layer, 0) / total for layer in tracing.TRACED_LAYERS},
        "bench_self_share": self_ns.get("query", 0) / total,
        "caches": caches,
        "counters": _layer_counters(workload, queries, caches),
    }
    path = OUT / f"{workload}.spans.json.gz"
    tracer.write(path)
    summary["spans_file"] = str(path.relative_to(ROOT))
    return summary


def _layer_counters(workload: str, queries, caches) -> dict:
    """Work counts read after the traced run: cache misses of the lazy
    builders, rows per class of the tables built, functionals enumerated."""
    from llclab.pairs import mirabolic_table
    from llclab.zeta import cached_dual_table

    out = {
        "galois.gauss_inner_misses": (caches["galois._gauss_inner"]["misses"], "count"),
        "zeta.dual_table_misses": (caches["zeta.cached_dual_table"]["misses"], "count"),
        "zeta.dual_rows_per_class": (0.0, "rows/class"),
        "pairs.mirabolic_points_per_class": (0.0, "points/class"),
        "stability.functionals": (0, "count"),
    }
    if workload == "integral-pairs":
        # every table the run built is still cached, so these calls only hit
        rows = classes = 0
        for key in sorted({(x.d.q, x.d.n, x.d.pi_unit) for x in queries}):
            T = cached_dual_table(*key)
            rows += T.row_count
            classes += len(T.agg)
        out["zeta.dual_rows_per_class"] = (rows / classes, "rows/class")
        points = classes = 0
        for q, n in sorted({(x.d.q, x.d.n) for x in queries}):
            M = mirabolic_table(q, n)
            points += M.row_count
            classes += len(M.classes) + len(M.nonmember_classes)
        out["pairs.mirabolic_points_per_class"] = (points / classes, "points/class")
    if workload == "building-census":
        functionals = sum(x.expected_checks() - 1 for x in queries if x.brute())
        out["stability.functionals"] = (functionals, "count")
    return out


def child_microbench(args) -> dict:
    _import_llclab()
    import microbench

    return {"microbench": microbench.run_all()}


CHILD_MODES = {"run": child_run, "microbench": child_microbench}


# ----- parent side ---------------------------------------------------------


def _spawn(mode: str, args, traced: bool = False) -> dict:
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--child", mode,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", "1" if traced else "0",
    ]
    proc = subprocess.run(
        cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT, cwd=str(ROOT)
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"benchmark: {mode} process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def calibration_s() -> float:
    """Best of five runs of a fixed pure-Python loop, for the
    fingerprint: drift in it between runs is drift in CPU speed."""
    return min(speed_probe() for _ in range(5))


def speed_probe() -> float:
    """Time of a fixed pure-Python mix of integer arithmetic, tuple
    allocation and dict access, about 2 ms.  Other tenants of the machine
    change its CPU speed in phases of seconds to minutes; this probe slows
    down with the code under test and never changes with llclab."""
    t0 = time.perf_counter()
    d = {}
    acc = 0
    for i in range(10_000):
        k = (i * 7919) % 1009
        d[k] = (k, i)
        acc = (acc + d[k][0] * i) % 1_000_003
    return time.perf_counter() - t0


class SpeedSampler:
    """Runs speed_probe() from a SIGALRM handler every PROBE_EVERY_S of
    wall time, between two bytecodes of whatever the process is doing, so
    long queries are sampled while they run.  Single-threaded: the handler
    runs in the main thread."""

    def __init__(self):
        self.samples: list[float] = []
        self.probe_s = 0.0

    def _handler(self, signum, frame):
        p = speed_probe()
        self.samples.append(p)
        self.probe_s += p

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False


def fingerprint() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "optimize": sys.flags.optimize,
        "calibration_s": calibration_s(),
    }


def tail(values: list[float]) -> tuple[float, int]:
    """The highest whole percentile with at least ten samples above it
    (nearest rank), and that percentile; the maximum below 11 samples."""
    xs = sorted(values)
    n = len(xs)
    if n < 11:
        return xs[-1], 100
    p = (100 * (n - 10)) // n
    rank = -(-p * n // 100)  # ceil(p * n / 100)
    return xs[rank - 1], p


def scaled_times(run: dict) -> list[float]:
    """Each query's time at the reference CPU speed: multiplied by
    REFERENCE_PROBE_S over the query's speed probe time."""
    return [t * REFERENCE_PROBE_S / p for t, p in zip(run["query_s"], run["query_probe_s"])]


def speed_factor(run: dict) -> float:
    """Time-weighted factor that takes the run's query loop to the
    reference CPU speed."""
    return sum(scaled_times(run)) / sum(run["query_s"])


def end_to_end(runs: list[dict]) -> tuple[dict, dict, int]:
    """Each timing is taken in every repetition at the reference CPU speed
    and reported as the median over the repetitions; the unscaled medians
    come second.  The tail percentile is the same in every repetition
    because the query count is."""
    med = statistics.median

    def timings(scaled: bool) -> dict:
        out: dict[str, list] = {}
        for r in runs:
            times = scaled_times(r) if scaled else r["query_s"]
            wall, setup = r["wall_s"], r["setup_s"]
            if scaled:
                wall *= speed_factor(r)
                setup *= REFERENCE_PROBE_S / statistics.fmean(r["setup_probe_s"])
            for name, v in (
                ("wall_s", wall),
                ("setup_s", setup),
                ("query_p50_ms", med(times) * 1e3),
                ("query_tail_ms", tail(times)[0] * 1e3),
            ):
                out.setdefault(name, []).append(v)
        return {name: med(vs) for name, vs in out.items()}

    scaled = timings(True)
    raw = timings(False)
    run = runs[0]
    units = {"wall_s": "s", "setup_s": "s", "query_p50_ms": "ms", "query_tail_ms": "ms"}
    metrics = {name: (scaled[name], unit) for name, unit in units.items()}
    metrics["peak_rss_mb"] = (med(r["peak_rss_mb"] for r in runs), "MB")
    metrics["fail_ratio"] = ((run["wrong"] + run["raised"]) / run["attempted"], "ratio")
    return metrics, {name: (raw[name], unit) for name, unit in units.items()}, tail(run["query_s"])[1]


def per_layer(untraced: dict, traced: dict, micro: dict) -> dict:
    tr = traced["trace"]
    out = {name: (value, unit) for name, (value, unit) in micro.items()}
    out.update((name, tuple(pair)) for name, pair in tr["counters"].items())
    for layer, share in tr["self_share"].items():
        out[f"{layer}.self_share"] = (share, "ratio")
    overhead = (traced["wall_s"] * speed_factor(traced)) / (untraced["wall_s"] * speed_factor(untraced))
    out["trace.overhead_ratio"] = (overhead, "ratio")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--child", choices=sorted(CHILD_MODES), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if sys.flags.optimize:
        # verify_certificate and other checks rely on assert
        print("benchmark: refusing to run under python -O", file=sys.stderr)
        return 2
    if not (SRC / "llclab" / "__init__.py").is_file():
        print(f"benchmark: no llclab sources under {SRC}", file=sys.stderr)
        return 2
    if args.child:
        args.traced = bool(args.trace)
        print(json.dumps(CHILD_MODES[args.child](args)))
        return 0

    fp = fingerprint()
    print("fingerprint " + json.dumps(fp, sort_keys=True))
    reps = 1 if args.trace else REPS[args.workload]
    runs = [_spawn("run", args) for _ in range(reps)]
    counts = {(r["attempted"], r["wrong"], r["raised"], r["expected_checks"]) for r in runs}
    if len(counts) != 1:
        print("benchmark: repetitions of one input list made different checks", file=sys.stderr)
        return 1
    run = runs[0]
    metrics, raw, tail_p = end_to_end(runs)
    count_ok = run["attempted"] == run["expected_checks"]
    correct = count_ok and run["wrong"] == 0
    failed = run["wrong"] + run["raised"]

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} repetitions {reps}")
    print(
        f"queries {len(run['query_s'])}  checks {run['attempted']} "
        f"(expected {run['expected_checks']})  failed {failed} "
        f"(wrong {run['wrong']}, raised {run['raised']})"
    )
    for name, (value, unit) in metrics.items():
        note = ""
        if name == "query_tail_ms":
            note = f"  (p{tail_p} of {len(run['query_s'])} queries)"
        if name != "fail_ratio" and reps > 1:
            note += f"  (median of {reps} processes)"
        print(f"{name} {value:.6g} {unit}{note}")
    for name, (value, unit) in raw.items():
        print(f"unscaled {name} {value:.6g} {unit}")
    print("speed factor per repetition " + " ".join(f"{speed_factor(r):.4f}" for r in runs))
    print("wall_s per repetition " + " ".join(f"{r['wall_s']:.4f}" for r in runs))
    _write_failures(args, run["failures"])
    for rec in run["failures"][:3]:
        print("failure " + json.dumps(rec, sort_keys=True))
    print(f"calibration_s after {calibration_s():.6g} s")

    result_metrics = {k: v for k, v in metrics.items() if k != "fail_ratio"}
    if args.trace:
        traced = _spawn("run", args, traced=True)
        if traced["attempted"] != run["attempted"] or traced["wrong"] != run["wrong"]:
            print("benchmark: the traced run made different checks than the untraced one", file=sys.stderr)
            correct = False
        micro = _spawn("microbench", args)["microbench"]
        result_metrics = per_layer(run, traced, micro)
        tr = traced["trace"]
        print(f"trace spans {tr['spans']} written to {tr['spans_file']}")
        print(f"trace bench.self_share {tr['bench_self_share']:.4f} ratio")
        for name, info in sorted(tr["caches"].items()):
            print(f"cache {name} " + json.dumps(info, sort_keys=True))
        for name, (value, unit) in result_metrics.items():
            print(f"{name} {value:.6g} {unit}")

    if not count_ok:
        print(
            f"benchmark: {run['attempted']} checks made, "
            f"{run['expected_checks']} expected from the inputs",
            file=sys.stderr,
        )
        return 1
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": run["attempted"],
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result_metrics.items()},
            }
        )
    )
    return 0 if correct else 1


def _write_failures(args, records) -> None:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}.failures.json"
    path.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())
