"""Command-line front door: decide, experiment, validate.

Exit codes: 0 success (decide: accepted), 3 decide rejected, 1 any error.
The distinct reject code lets shell pipelines branch on the verdict
without parsing output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .abstention import AbstentionConfig, decide
from .data import load_csv
from .estimators import HPolicy
from .experiments import ConfigError, run_scenario
from .kernels import KernelKind, kernel_spec


def _jsonable(value: float):
    return value if math.isfinite(value) else None


def _checked_flags(args) -> tuple[AbstentionConfig, list[float], HPolicy]:
    """(config, x, policy) from the flags, checked before data is read."""
    try:
        policy = HPolicy("loocv") if args.h is None else HPolicy("fixed", h=args.h)
        cfg = AbstentionConfig(lam=args.lam, beta=args.beta)
    except ValueError as exc:  # each message starts with the flag's name
        raise ValueError(f"--{exc}") from None
    try:
        x = [float(v) for v in args.x.split(",")]
        if not all(map(math.isfinite, x)):
            raise ValueError
    except ValueError:
        raise ValueError("--x must be comma-separated finite reals, "
                         f"got {args.x!r}") from None
    return cfg, x, policy


def _cmd_decide(args) -> int:
    cfg, x, policy = _checked_flags(args)
    data = load_csv(args.train, has_header=args.has_header,
                    target_column=args.target_col)
    if len(x) != data.d:
        raise ValueError(f"query point has {len(x)} coordinates, data has {data.d}")
    fit = policy.fit_rule(kernel_spec(args.kernel, data.d))(data)
    decision = decide(fit, x, cfg)
    print(json.dumps({
        "verdict": decision.verdict.value,
        "reason": decision.reason.value,
        "f_hat": _jsonable(decision.eval.f_hat),
        "sigma2_hat": _jsonable(decision.eval.sigma2_hat),
        "p_hat": _jsonable(decision.eval.p_hat),
        "threshold": _jsonable(decision.threshold),
        "h": fit.h,
    }))
    return 0 if decision.accepted else 3


def _cmd_experiment(args) -> int:
    with open(args.config, encoding="utf-8") as fh:
        config = json.load(fh)
    try:
        manifest = run_scenario(config, args.out_dir)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return 1
    for path in manifest["outputs"]:
        print(path)
    return 0


def _cmd_validate(args) -> int:
    load_csv(args.csv, has_header=args.has_header,
             target_column=args.target_col)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="selreg",
        description="Selective kernel regression: abstain unless the "
                    "conditional-variance test passes.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decide", help="accept/reject a single query point")
    p.add_argument("--train", required=True, help="training CSV path")
    p.add_argument("--target-col", type=int, required=True,
                   help="0-based response column in the CSV")
    p.add_argument("--has-header", action="store_true")
    p.add_argument("--x", required=True, help="query point, comma-separated reals")
    p.add_argument("--lambda", dest="lam", type=float, required=True,
                   help="abstention cost")
    p.add_argument("--beta", type=float, required=True,
                   help="test significance level")
    band = p.add_mutually_exclusive_group(required=True)
    band.add_argument("--h", type=float, help="bandwidth")
    band.add_argument("--h-loocv", action="store_true",
                      help="select the bandwidth by leave-one-out CV")
    p.add_argument("--kernel", default="gaussian",
                   choices=[k.value for k in KernelKind])
    p.set_defaults(func=_cmd_decide)

    p = sub.add_parser("experiment", help="run a scenario from a JSON config")
    p.add_argument("--config", required=True, help="JSON config path")
    p.add_argument("--out-dir", required=True, help="output directory")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("validate", help="check that a CSV parses as a dataset")
    p.add_argument("csv", help="CSV path")
    p.add_argument("--target-col", type=int, default=None)
    p.add_argument("--has-header", action="store_true")
    p.set_defaults(func=_cmd_validate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
