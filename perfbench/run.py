"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload mc_small_n --seed 1 --seconds 30 --trace 0

Set-up (package import, inputs, a small warm-up iteration) is timed in this
process and in fresh child processes; then iterations of the workload run back to
back until ``--seconds`` have passed. After the window closes the outputs of
the first and the last iteration are checked against the reference in
reference.py. With ``--trace 0`` the last line carries the end-to-end
metrics; with ``--trace 1`` iterations alternate untraced and traced and the
last line carries the per-layer metrics of the traced ones.

Each run also appends its result, the sample counts and the environment to
``<out-dir>/results.jsonl`` (default ``.bench_out`` in the checkout), which
compare.py reads.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from compare import spread  # noqa: E402
from tracing import Tracer, metric_specs  # noqa: E402

SETUP_SAMPLES = {"full": 11, "tiny": 2}
# Shared 2-vCPU machines alternate between a fast and a slow phase (about
# 1.5x apart) lasting seconds to tens of seconds. A run's median iteration
# (or set-up) jumps between the phases as their mix crosses one half; its
# 10th percentile stays with the fast phase, which almost every run visits.
TIME_QUANTILE = 10
# The phases flip within an iteration too, so single queries are taken in
# blocks of consecutive calls: the p50 is the 10th percentile of the block
# medians.
QUERY_BLOCK = 32
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
REQUIRED = ("src/selreg/__init__.py", workloads.AIRFOIL_CSV, workloads.AIRFOIL_SWEEP)


class Selreg:
    """The package's modules, looked up at call time so traced wrappers apply."""

    def __init__(self, root: Path):
        sys.path.insert(0, str(root / "src"))
        import selreg
        import selreg.abstention
        import selreg.cli
        import selreg.data
        import selreg.estimators
        import selreg.experiments
        import selreg.kernels

        src = (root / "src").resolve()
        if src not in Path(selreg.__file__).resolve().parents:
            raise ImportError(f"selreg imported from {selreg.__file__}, not {src}")
        self.abstention = selreg.abstention
        self.cli = selreg.cli
        self.data = selreg.data
        self.estimators = selreg.estimators
        self.experiments = selreg.experiments
        self.kernels = selreg.kernels


def set_up(args, root: Path, out_dir: Path):
    """Import the package, build the workload's inputs and warm up.

    The warm-up runs one iteration at the tiny size so that every code path
    has been executed once before timing starts. Returns the workload and
    the seconds this took. Python's start and numpy's import come before and
    are not counted: no change to the package moves them, and numpy's import
    alone (about 0.14 s) would be two thirds of the time.
    """
    t0 = time.perf_counter()
    sel = Selreg(root)
    warm = workloads.make(sel, args.workload, args.seed, "tiny", out_dir / "warmup", root)
    inp = warm.prepare(0)
    warm.collect(inp, warm.execute(inp))
    wl = workloads.make(sel, args.workload, args.seed, args.size, out_dir, root)
    return wl, time.perf_counter() - t0


def setup_probe(args, root: Path, out_dir: Path) -> float:
    """Set-up time of a fresh process, measured by that process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--trace", "0", "--size", args.size,
           "--root", str(root), "--out-dir", str(out_dir)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                          check=True)
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def git_commit(root: Path) -> str:
    try:
        done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip()


def environment(root: Path, seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        cpu = platform.processor() or "unknown"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "commit": git_commit(root),
        "workload_seed": seed,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload for the smoke test")
    parser.add_argument("--root", default=str(HERE.parent),
                        help="checkout whose src/ is measured (default: this one)")
    parser.add_argument("--out-dir", default=None,
                        help="scratch outputs (default: <root>/.bench_out)")
    parser.add_argument("--results", default=None,
                        help="JSONL file the run appends to "
                             "(default: <out-dir>/results.jsonl)")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path(args.root).resolve()
    missing = [p for p in REQUIRED if not (root / p).is_file()]
    if missing:
        print(f"error: {root} lacks {', '.join(missing)}", file=sys.stderr)
        return 2
    base_out = Path(args.out_dir) if args.out_dir else root / ".bench_out"
    out_dir = base_out / args.workload

    if args.setup_probe:
        print(json.dumps({"setup_s": set_up(args, root, out_dir / "probe")[1]}))
        return 0

    started = datetime.now(timezone.utc).isoformat()
    wl, first_setup_s = set_up(args, root, out_dir)
    setup_s = [first_setup_s]
    probes = 0 if args.trace else SETUP_SAMPLES[args.size] - 1

    tracer = Tracer() if args.trace else None
    chk = workloads.Checker()
    run_s, traced_s = [], []
    traced_runs, traced_attempted = [], []  # completed / all traced iterations
    query_s, cli_s = [], []  # query_s: one list of latencies per iteration
    first = last = None  # (inputs, record) of the iterations checked later
    min_iterations = 4 if args.trace else 2
    start = time.perf_counter()
    deadline = start + args.seconds
    i = 0
    while i < min_iterations or time.perf_counter() < deadline:
        # fresh set-ups run between iterations, spread over the window, so
        # that they do not all fall into one phase of the machine
        due = start + (len(setup_s) - 0.5) * args.seconds / max(probes, 1)
        if len(setup_s) <= probes and time.perf_counter() >= due:
            setup_s.append(setup_probe(args, root, base_out))
        traced = tracer is not None and i % 2 == 1
        inp = wl.prepare(i)
        if traced:
            traced_attempted.append(i)
            tracer.install()
        try:
            t0 = time.perf_counter()
            if traced:
                with tracer.iteration(i):
                    rec = wl.execute(inp)
            else:
                rec = wl.execute(inp)
            elapsed = time.perf_counter() - t0
        except Exception:  # a failed iteration is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            chk.check(False, f"iteration {i} raised")
            i += 1
            continue
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            traced_s.append(elapsed)
            traced_runs.append(i)
        else:
            run_s.append(elapsed)
            query_s.append(rec["query_s"])
            cli_s.extend(rec["cli_s"])
        wl.collect(inp, rec)
        last = (inp, rec)
        first = first or last
        i += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_s += [setup_probe(args, root, base_out)
                for _ in range(probes + 1 - len(setup_s))]

    if not run_s or (tracer is not None and not traced_attempted):
        print("error: no iteration completed", file=sys.stderr)
        return 1
    checks = [lambda: wl.check(*first, chk)]
    if last is not first:
        checks.append(lambda: wl.check(*last, chk))
    checks.append(lambda: wl.check_once(chk))
    for check in checks:
        try:
            check()
        except Exception:  # malformed output: a failed check, not a crash
            traceback.print_exc(file=sys.stderr)
            chk.check(False, "an output check raised")
    for message in chk.messages:
        print(f"check failed: {message}", file=sys.stderr)

    queries = [v for q in query_s for v in q]
    if tracer is not None:
        # with no traced iteration completed, the run already counts as failed
        overhead = (statistics.median(traced_s) / statistics.median(run_s) - 1.0
                    if traced_s else 0.0)
        metrics = tracer.metrics(traced_runs or traced_attempted,
                                 traced_attempted, overhead)
        units = {name: unit for name, unit, _ in metric_specs()}
        tracer.write(out_dir / "trace.csv")
    else:
        iteration_s = float(np.percentile(run_s, TIME_QUANTILE))
        blocks = sorted((q[b:b + QUERY_BLOCK] for q in query_s
                         for b in range(0, len(q), QUERY_BLOCK)), key=statistics.median)
        block_p50_s = [statistics.median(b) for b in blocks]
        metrics = {
            "run_s": iteration_s,
            "setup_s": float(np.percentile(setup_s, TIME_QUANTILE)),
            "replicates_per_s": wl.replicates_per_iteration / iteration_s,
            "decisions_per_s": wl.decisions_per_iteration / iteration_s,
            "query_p50_ms": 1e3 * float(np.percentile(block_p50_s, TIME_QUANTILE)),
            "cli_decide_s": float(np.percentile(cli_s, TIME_QUANTILE)),
            "peak_rss_mb": peak_rss_mb,
        }
        units = {"run_s": "s", "setup_s": "s", "replicates_per_s": "1/s",
                 "decisions_per_s": "1/s", "query_p50_ms": "ms",
                 "cli_decide_s": "s", "peak_rss_mb": "MB"}

    result = {"correct": chk.failed == 0, "attempted": chk.attempted,
              "failed": chk.failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    samples = {"iterations": len(run_s), "traced_iterations": len(traced_runs),
               "run_s_median_q1_q3": spread(run_s),
               "queries": len(queries),
               # too unsteady on a shared VM to carry a bound (see README)
               "query_p99_ms": (1e3 * float(np.percentile(queries, 99))
                                if queries else None),
               "iteration_s": run_s,
               "cli_s": cli_s, "setup_s": setup_s,
               "cli_calls": len(cli_s), "setup_samples": len(setup_s),
               "failed_frac": chk.failed / chk.attempted}
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "size": args.size,
              "started": started, "env": environment(root, args.seed),
              "samples": samples, "result": result}
    results = Path(args.results) if args.results else base_out / "results.jsonl"
    results.parent.mkdir(parents=True, exist_ok=True)
    with open(results, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps({"env": record["env"], "samples": samples}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
