"""Command-line front end.

Exit codes are fixed for CI use: 0 on success, 1 when a verification or
runtime step fails (a dominance counterexample, non-convergence, a
constant-gain failure), 2 on configuration errors.  Every run echoes its fully
resolved configuration to stderr; re-running that configuration reproduces the
output files byte for byte, because all randomness flows from --seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import exactdp, interchange, models, montecarlo
from .policies import POLICY_NAMES, make_policy

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


class UsageError(Exception):
    pass


def _parse_rates(text: str) -> list[int]:
    try:
        if ":" in text:
            lo, hi = map(int, text.split(":", 1))
            if hi < lo:
                raise UsageError(f"empty rate range {text!r}")
            return list(range(lo, hi + 1))
        return [int(r) for r in text.split(",") if r != ""]
    except ValueError:
        raise UsageError(f"bad --rates {text!r}: expected lo:hi or a comma list "
                         "of integers") from None


def _load_scenario(path: str) -> models.ScenarioModel:
    if not os.path.exists(path):
        raise UsageError(f"scenario file not found: {path}")
    try:
        return models.load_scenario(path)
    except (ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
        raise UsageError(f"bad scenario file {path}: {exc}") from None


def _echo_config(args: argparse.Namespace, extra: dict | None = None) -> None:
    cfg = {k: v for k, v in vars(args).items() if k != "func"}
    if extra:
        cfg.update(extra)
    print("config " + json.dumps(cfg, sort_keys=True), file=sys.stderr)


def cmd_simulate(args) -> int:
    scenario = _load_scenario(args.scenario)
    if args.n_traj < 1:
        raise UsageError("--n-traj must be >= 1")
    if args.T < 1:
        raise UsageError("--T must be >= 1")
    if args.warmup < 0:
        raise UsageError("--warmup must be >= 0")
    policies = [p.strip() for p in args.policies.split(",") if p.strip()]
    if not policies:
        raise UsageError(f"--policies {args.policies!r} selects no policy")
    for p in policies:
        if p not in POLICY_NAMES:
            raise UsageError(f"unknown policy {p!r}; choose from {POLICY_NAMES}")
    rates = _parse_rates(args.rates)
    if not rates:
        raise UsageError(f"--rates {args.rates!r} selects no arrival rate")
    try:    # refuses a scenario with no arrival rate to set, and a count out of range
        for rate in {min(rates), max(rates)}:
            models.with_arrival_rate(scenario, rate)
    except ValueError as exc:
        raise UsageError(f"--rates cannot apply: {exc}") from None
    if args.penalty:
        scenario = models.with_penalty(scenario, args.penalty)
    penalty = models.penalty_kind(scenario.penalty)
    _echo_config(args, {"resolved_rates": rates, "resolved_penalty": penalty})
    table = montecarlo.figure_experiment(
        penalty, rates, args.T, args.n_traj, args.seed,
        policies=policies, base_scenario=scenario, warmup=args.warmup,
        threads=args.threads)
    for policy in table.policies:
        for rate in table.rates:
            cell = table.cells[(policy, rate)]
            why = f" reason={cell.fallback}" if cell.fallback else ""
            print(f"cell policy={policy} rate={rate} engine={cell.engine}{why}",
                  file=sys.stderr)
    table.to_csv(args.out)
    print(f"wrote {len(policies) * len(rates)} rows to {args.out}")
    return EXIT_OK


def cmd_verify_dominance(args) -> int:
    scenario = _load_scenario(args.scenario)
    if args.cases < 1:
        raise UsageError("--cases must be >= 1")
    if args.policy not in POLICY_NAMES:
        raise UsageError(f"unknown policy {args.policy!r}")
    if args.penalty:
        scenario = models.with_penalty(scenario, args.penalty)
    _echo_config(args)
    policy = make_policy(args.policy, scenario)
    report = interchange.certify_dominance(scenario, policy, args.cases, args.seed)
    interchange.save_report(report, args.out)
    print(f"{report.n_cases} cases: {report.strict} strict, {report.equal} equal, "
          f"{len(report.counterexamples)} counterexamples -> {args.out}")
    if not report.ok:
        print(f"reproduction bundles in {args.out}", file=sys.stderr)
        return EXIT_FAILURE
    return EXIT_OK


def cmd_solve_exact(args) -> int:
    scenario = _load_scenario(args.scenario)
    if args.max_iter < 1:
        raise UsageError("--max-iter must be >= 1")
    if not args.tol > 0:
        raise UsageError("--tol must be > 0")
    _echo_config(args)
    try:
        mdp = exactdp.enumerate_mdp(scenario, ceiling=args.ceiling)
    except ValueError as exc:    # StateCeilingExceeded included
        raise UsageError(str(exc)) from None
    for note in mdp.assumption_notes:
        print(f"assumption warning: {note}", file=sys.stderr)
    try:
        solution = exactdp.relative_value_iteration(mdp, tol=args.tol,
                                                    max_iter=args.max_iter)
    except exactdp.NonConvergenceError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        print("constant-gain check under the zero-charge policy:", file=sys.stderr)
        _report_gain_classes(mdp, file=sys.stderr)
        return EXIT_FAILURE
    findings = exactdp.verify_constant_gain(mdp, solution, tol=args.tol * 100)
    if not findings.ok:
        print(f"constant-gain failure: residual={findings.residual:.3g} "
              f"classes={findings.n_recurrent_classes} "
              f"gains={[float(g) for g in findings.class_gains]}", file=sys.stderr)
        return EXIT_FAILURE
    projection = exactdp.lllp_projection(mdp, solution)
    exactdp.export_solution(mdp, solution, args.out)
    compliant = dataclasses.replace(solution, policy=projection.policy)
    root, ext = os.path.splitext(args.out)
    compliant_path = f"{root}.lllp{ext or '.json'}"
    exactdp.export_solution(mdp, compliant, compliant_path)
    print(f"gain={solution.gain:.12g} residual={solution.residual:.3g} "
          f"iterations={solution.iterations} states={mdp.n_states} "
          f"swaps={projection.swaps}")
    print(f"wrote {args.out} and {compliant_path}")
    return EXIT_OK


def _report_gain_classes(mdp, file) -> None:
    import numpy as np
    policy = np.zeros(mdp.n_states, dtype=np.int64)
    classes = exactdp.recurrent_classes(mdp, policy)
    gains = [exactdp.class_gain(mdp, policy, cls) for cls in classes]
    print(f"  {len(classes)} recurrent classes with gains {gains}", file=file)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chargesched",
        description="Deadline-constrained charging scheduling toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="Monte Carlo policy comparison -> CSV")
    sim.add_argument("--scenario", required=True)
    sim.add_argument("--policies", default="edf,llsp,lllp")
    sim.add_argument("--penalty", default=None, choices=["linear", "quadratic"],
                     help="replace the scenario's penalty table")
    sim.add_argument("--rates", default="5:32",
                     help="arrival rates, inclusive lo:hi or comma list")
    sim.add_argument("--seed", type=int, required=True)
    sim.add_argument("--T", type=int, default=200)
    sim.add_argument("--n-traj", type=int, default=10_000)
    sim.add_argument("--warmup", type=int, default=20)
    sim.add_argument("--threads", type=int, default=os.cpu_count())
    sim.add_argument("--out", required=True)
    sim.set_defaults(func=cmd_simulate)

    ver = sub.add_parser("verify-dominance",
                         help="interchange dominance certificate -> report JSON")
    ver.add_argument("--scenario", required=True)
    ver.add_argument("--policy", default="edf")
    ver.add_argument("--penalty", default=None, choices=["linear", "quadratic"])
    ver.add_argument("--cases", type=int, default=1000)
    ver.add_argument("--seed", type=int, required=True)
    ver.add_argument("--out", required=True)
    ver.set_defaults(func=cmd_verify_dominance)

    sol = sub.add_parser("solve-exact",
                         help="exact average-cost DP -> solution JSON")
    sol.add_argument("--scenario", required=True)
    sol.add_argument("--tol", type=float, default=1e-12)
    sol.add_argument("--max-iter", type=int, default=200_000)
    sol.add_argument("--ceiling", type=int, default=exactdp.DEFAULT_STATE_CEILING)
    sol.add_argument("--out", required=True)
    sol.set_defaults(func=cmd_solve_exact)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (interchange.AggregateMismatchError, exactdp.ProjectionError,
            RuntimeError) as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
