"""Compare benchmark results of two commits, workload by workload.

    # alternate runs of two checkouts with this benchmark's code
    python3 perfbench/compare.py run --base ../parent --head . --out cmp --pairs 10
    # one verdict per workload and end-to-end metric
    python3 perfbench/compare.py report cmp/base.jsonl cmp/head.jsonl
    # run-to-run spread of one result set (interquartile range / median)
    python3 perfbench/compare.py spread cmp/base.jsonl [--json]

A pair is one run of each commit on the same workload seed; ``run`` swaps
which commit goes first from one pair to the next. ``report`` says, for
every workload and end-to-end metric in BENCHMARK.json:

* better -- at least 10 pairs, the head wins at least 9 in 10 of them (ties
  count for neither side), and the medians differ by more than the base's
  interquartile range;
* worse -- the head's median is worse than the base's by more than the
  metric's bound;
* unresolved -- not worse, but the base's own spread (interquartile range
  over median) exceeds the bound, and not every head run beats every base
  run;
* unchanged -- otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_benchmark(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def load_runs(path, trace: int = 0) -> dict[str, dict[int, dict]]:
    """Full-size runs by workload and seed (the last run of a seed wins)."""
    runs: dict[str, dict[int, dict]] = defaultdict(dict)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            if rec["trace"] == trace and rec.get("size", "full") == "full":
                runs[rec["workload"]][rec["seed"]] = rec
    return runs


def value(rec: dict, metric: str) -> float:
    return float(rec["result"]["metrics"][metric]["value"])


def spread(values: list[float]) -> tuple[float, float, float]:
    """(median, q1, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def verdict(base: list[float], head: list[float], better: str,
            bound: float) -> tuple[str, dict]:
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (h - b) > 0 for b, h in zip(base, head))
    losses = sum(sign * (h - b) < 0 for b, h in zip(base, head))
    mb, q1, q3 = spread(base)
    mh, _, _ = spread(head)
    change = sign * (mh - mb) / mb  # > 0 means better
    base_spread = (q3 - q1) / mb
    all_better = (min(head) > max(base)) if sign > 0 else (max(head) < min(base))
    if (len(base) >= MIN_PAIRS and wins >= WIN_SHARE * len(base)
            and abs(mh - mb) > q3 - q1):
        outcome = "better"
    elif change < -bound:
        outcome = "worse"
    elif base_spread > bound and not all_better:
        outcome = "unresolved"
    else:
        outcome = "unchanged"
    return outcome, {"pairs": len(base), "wins": wins, "losses": losses,
                     "base_median": mb, "head_median": mh, "change": change,
                     "base_spread": base_spread, "bound": bound}


def report(base_path, head_path, bench: dict) -> list[dict]:
    base, head = load_runs(base_path), load_runs(head_path)
    rows = []
    for w in bench["workloads"]:
        name = w["name"]
        seeds = sorted(set(base.get(name, {})) & set(head.get(name, {})))
        if not seeds:
            continue
        b_runs = [base[name][s] for s in seeds]
        h_runs = [head[name][s] for s in seeds]
        base_first = sum(b["started"] < h["started"] for b, h in zip(b_runs, h_runs))
        for side, runs in (("base", b_runs), ("head", h_runs)):
            att = sum(r["result"]["attempted"] for r in runs)
            fail = sum(r["result"]["failed"] for r in runs)
            rows.append({"workload": name, "metric": f"failed_frac[{side}]",
                         "outcome": "ok" if fail == 0 else "FAILED",
                         "pairs": len(runs), "value": fail / att})
        for m in bench["end_to_end"]:
            outcome, detail = verdict([value(r, m["name"]) for r in b_runs],
                                      [value(r, m["name"]) for r in h_runs],
                                      m["better"], m["bound"])
            rows.append({"workload": name, "metric": m["name"], "unit": m["unit"],
                         "outcome": outcome, "base_first": base_first, **detail})
    return rows


def print_report(rows: list[dict]) -> None:
    for r in rows:
        if "base_median" not in r:
            print(f"{r['workload']:14} {r['metric']:18} {r['outcome']:10} "
                  f"{r['value']:.3g} over {r['pairs']} runs")
            continue
        print(f"{r['workload']:14} {r['metric']:18} {r['outcome']:10} "
              f"base {r['base_median']:.6g} head {r['head_median']:.6g} {r['unit']} "
              f"({100 * r['change']:+.1f}% better) wins {r['wins']}/{r['pairs']} "
              f"base spread {100 * r['base_spread']:.1f}% bound "
              f"{100 * r['bound']:.0f}% base first {r['base_first']}/{r['pairs']}")


def summarize(path, bench: dict) -> dict:
    """Median, quartiles and spread of every metric, per workload.

    End-to-end metrics come from the untraced runs, per-layer ones (medians
    only) from the traced runs of the same file.
    """
    untraced, traced = load_runs(path, 0), load_runs(path, 1)
    out = {}
    for w in bench["workloads"]:
        name = w["name"]
        recs = list(untraced.get(name, {}).values())
        entry = {"runs": len(recs), "seeds": sorted(untraced.get(name, {}))}
        if recs:
            entry["env"] = recs[0]["env"]
            entry["failed_frac"] = (sum(r["result"]["failed"] for r in recs)
                                    / sum(r["result"]["attempted"] for r in recs))
            for m in bench["end_to_end"]:
                med, q1, q3 = spread([value(r, m["name"]) for r in recs])
                entry[m["name"]] = {"median": med, "q1": q1, "q3": q3,
                                    "spread": (q3 - q1) / med, "unit": m["unit"],
                                    "bound": m["bound"]}
        t_recs = list(traced.get(name, {}).values())
        if t_recs:
            entry["traced_runs"] = len(t_recs)
            entry["per_layer_median"] = {
                m["name"]: statistics.median(value(r, m["name"]) for r in t_recs)
                for m in bench["per_layer"]}
        out[name] = entry
    return out


def print_spread(summary: dict, bench: dict) -> None:
    for name, entry in summary.items():
        for m in bench["end_to_end"]:
            if m["name"] not in entry:
                continue
            s = entry[m["name"]]
            flag = "" if s["spread"] < m["bound"] / 3 else (
                "  above bound/3" if s["spread"] <= m["bound"] else "  ABOVE BOUND")
            print(f"{name:14} {m['name']:18} median {s['median']:.6g} {m['unit']} "
                  f"spread {100 * s['spread']:.2f}% (bound {100 * m['bound']:.0f}%, "
                  f"{entry['runs']} runs){flag}")


def run_pairs(args, bench: dict) -> None:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    names = args.workload or [w["name"] for w in bench["workloads"]]
    sides = {"base": Path(args.base).resolve(), "head": Path(args.head).resolve()}
    for k in range(args.pairs):
        seed = args.first_seed + k
        order = ("base", "head") if k % 2 == 0 else ("head", "base")
        for name in names:
            for side in order:
                cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                       "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                       "--trace", "0", "--root", str(sides[side]),
                       "--out-dir", str(out / f"work-{side}"),
                       "--results", str(out / f"{side}.jsonl")]
                subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL,
                               timeout=900)
                print(f"pair {k + 1}/{args.pairs} {name} {side} done", flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--benchmark", default=str(HERE.parent / "BENCHMARK.json"))
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run", help="alternate runs of two checkouts")
    p.add_argument("--base", required=True, help="parent checkout")
    p.add_argument("--head", required=True, help="change checkout")
    p.add_argument("--out", required=True, help="directory for the result sets")
    p.add_argument("--pairs", type=int, default=MIN_PAIRS)
    p.add_argument("--first-seed", type=int, default=1000)
    p.add_argument("--workload", action="append")
    p = sub.add_parser("report", help="verdict per workload and metric")
    p.add_argument("base")
    p.add_argument("head")
    p.add_argument("--json", action="store_true")
    p = sub.add_parser("spread", help="run-to-run spread of one result set")
    p.add_argument("results")
    p.add_argument("--json", action="store_true",
                   help="print the full summary (the form of baseline.json)")
    args = parser.parse_args(argv)
    bench = load_benchmark(Path(args.benchmark))
    if args.command == "run":
        run_pairs(args, bench)
    elif args.command == "report":
        rows = report(args.base, args.head, bench)
        if not rows:
            print("error: the two result sets share no (workload, seed)",
                  file=sys.stderr)
            return 1
        if args.json:
            print(json.dumps(rows, indent=1))
        else:
            print_report(rows)
    elif args.json:
        print(json.dumps(summarize(args.results, bench), indent=1))
    else:
        print_spread(summarize(args.results, bench), bench)
    return 0


if __name__ == "__main__":
    sys.exit(main())
