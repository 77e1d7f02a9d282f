"""Command-line entry point.

Subcommands: tally, conditions, weights-sweep, walk, divergence,
experiment, reproduce.  Exit codes: 0 success, 1 validation error
(one-line diagnostic on stderr), 2 internal numeric failure.  All
randomness hangs off --seed (default 0).  Human tables print 6
significant digits; JSON carries full precision.  CSV files start with
a `# seed=... config_hash=...` provenance comment.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import divergence as div
from . import experiment as exp
from . import profile as prof
from . import tally
from . import walk
from . import weights as wts
from .measure import MeasureSpec, affine, from_json as measure_from_json, lebesgue


def _fmt(v: float) -> str:
    if isinstance(v, float) and math.isnan(v):
        return "nan"
    return f"{v:.6g}"


def _provenance(seed: int, **params) -> str:
    return f"# seed={seed} config_hash={exp.json_digest(params)}"


def _load_measure(path: str) -> MeasureSpec:
    return measure_from_json(Path(path).read_text())


def _parse_floats(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v.strip() != ""]


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


# -- subcommand handlers ----------------------------------------------------

def _cmd_tally(args: argparse.Namespace) -> int:
    if args.profile_file:
        values = _parse_floats(Path(args.profile_file).read_text().strip())
    else:
        values = _parse_floats(args.profile)
    profile = prof.Profile(np.asarray(values), prof.ExplicitSource(tuple(values)))
    if profile.n % 2 == 0:
        raise ValueError(f"even voter count {profile.n}: provide an odd profile")
    if args.weights or args.weights_file:
        if args.weights_file:
            w = _parse_floats(Path(args.weights_file).read_text().strip())
        else:
            w = _parse_floats(args.weights)
        est = tally.weighted_majority_prob(
            profile, w, mode=args.mode, replicas=args.replicas, seed=args.seed
        )
    elif args.mode == "auto":
        est = tally.majority_prob_exact(profile)
    else:
        est = tally.weighted_majority_prob(
            profile, np.ones(profile.n), mode=args.mode, replicas=args.replicas, seed=args.seed
        )
    doc = {
        "value": est.value,
        "method": est.method,
        "half_width": est.half_width,
        "n_replicas": est.n_replicas,
    }
    if est.tie_prob is not None:
        doc["tie_prob"] = est.tie_prob
    if est.method == "monte_carlo":
        doc["draws"] = est.draws
    if est.method in ("bound", "exact_dp"):
        doc["trimmed_mass"] = est.trimmed_mass
        doc["rounding_bound"] = est.rounding_bound
    _write_or_print(json.dumps(doc), args.out)
    return 0


def _source_from_args(args: argparse.Namespace) -> prof.ProfileSource:
    if args.source == "iid" and not args.measure:
        raise ValueError("iid source needs --measure FILE")
    build = {
        "iid": lambda: prof.IidSource(_load_measure(args.measure)),
        "condorcet": lambda: prof.CondorcetSource(args.eps),
        "moa": lambda: prof.MoaSource(args.eps),
        "c1": lambda: prof.C1Source(args.alpha),
        "c2": lambda: prof.C2Source(tuple(map(int, args.prefix.split(","))) if args.prefix else ()),
        "explicit": lambda: prof.ExplicitSource(tuple(_parse_floats(args.competences))),
    }
    return build[args.source]()


def _cmd_conditions(args: argparse.Namespace) -> int:
    source = _source_from_args(args)
    checkpoints = [int(v) for v in args.checkpoints.split(",")]
    report = prof.condition_report(source, checkpoints, seed=args.seed)
    params = dict(source=args.source, checkpoints=checkpoints, eps=args.eps,
                  alpha=args.alpha, prefix=args.prefix)
    if args.source in ("iid", "explicit"):  # by content; flags fully name the others
        params |= asdict(source)
    lines = [_provenance(args.seed, **params)]
    lines.append(",".join(prof.ConditionReport.FIELDS))
    for row in report.rows():
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    _write_or_print("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_weights_sweep(args: argparse.Namespace) -> int:
    spec = _load_measure(args.measure) if args.measure else lebesgue()
    lines = [
        _provenance(args.seed, measure=asdict(spec) if args.measure else "lebesgue",
                    w=args.w_grid, k=args.k_grid, sigma=args.sigma_grid),
        "W,k,sigma_w,moment_criterion,drift",
    ]
    for W in _parse_floats(args.w_grid):
        for k in (int(v) for v in args.k_grid.split(",")):
            for sigma in _parse_floats(args.sigma_grid):
                scheme = wts.StochasticPoly(W=W, k=k, sigma_w=sigma)
                crit = wts.moment_criterion(spec, k)
                lines.append(f"{W!r},{k},{sigma!r},{crit!r},{wts.drift(spec, scheme)!r}")
    _write_or_print("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_walk(args: argparse.Namespace) -> int:
    if args.walk_mode == "border":
        rows = ["m,exact_num,exact_den,float,asymptote,ratio"]
        for m in range(args.m_min, args.m + 1):
            pc = walk.border_measure(m)
            asym = walk.stirling_asymptote(m)
            rows.append(
                f"{m},{pc.numerator},{pc.denominator},{pc.value!r},{asym!r},{pc.value / asym!r}"
            )
            print(f"m={m}, exact={pc.numerator}/{pc.denominator}, float={_fmt(pc.value)}")
        if args.out:
            header = _provenance(args.seed, m=args.m, m_min=args.m_min)
            Path(args.out).write_text(header + "\n" + "\n".join(rows) + "\n")
        return 0
    if args.walk_mode == "return":
        est = walk.random_walk_return(args.level, args.horizon, args.replicas, seed=args.seed)
        print(
            f"k={args.level}, horizon={args.horizon}, estimate={_fmt(est.value)} "
            f"+- {_fmt(est.half_width)} ({est.n_replicas} replicas)"
        )
        return 0
    if args.walk_mode == "moa":
        spec = _load_measure(args.measure) if args.measure else lebesgue()
        est = walk.moa_fraction_experiment(
            spec, args.eps0, args.eps, args.n, args.trials, seed=args.seed
        )
        print(
            f"measure={spec.label}, eps0={_fmt(args.eps0)}, eps={_fmt(args.eps)}, n={args.n}: "
            f"frequency={_fmt(est.value)} +- {_fmt(est.half_width)}"
        )
        return 0
    raise ValueError(f"unknown walk mode {args.walk_mode!r}")


def _cmd_divergence(args: argparse.Namespace) -> int:
    rep = div.divergences(_load_measure(args.p), _load_measure(args.q))
    _write_or_print(json.dumps(asdict(rep)), args.out)
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    doc = json.loads(Path(args.config).read_text())
    doc.setdefault("seed", args.seed)
    config = exp.config_from_dict(doc)
    report = exp.run(config)
    csv_text = exp.report_to_csv(report)
    json_text = exp.report_to_json(report)
    if args.out_dir:
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.csv").write_text(csv_text)
        (out / "report.json").write_text(json_text)
        (out / "report.svg").write_text(exp.report_to_svg(report))
        print(f"wrote report.csv, report.json, report.svg to {out}")
    else:
        sys.stdout.write(csv_text)
    if len(report.rows) >= 3:
        print(f"trend: {exp.classify_trend(report)}")
    return 0


# -- reproduce scenarios ----------------------------------------------------

def _scenario_shapley_grofman(args) -> None:
    values = [0.9, 0.9, 0.6, 0.6, 0.6]
    profile = prof.Profile(np.asarray(values), prof.ExplicitSource(tuple(values)))
    rules = (
        ("expert", [1.0, 0.0, 0.0, 0.0, 0.0]),
        ("simple", [1.0, 1.0, 1.0, 1.0, 1.0]),
        ("weighted", [1 / 3, 1 / 3, 1 / 9, 1 / 9, 1 / 9]),
    )
    print("rule      win_prob")
    for name, w in rules:
        est = tally.weighted_majority_prob(profile, w, mode="brute")
        print(f"{name:<9} {_fmt(est.value)}")


def _unit_sweep(measure: MeasureSpec, profiles: int, high: float, low: float):
    """A scenario printing the unit-weight experiment table at n = 101, 1001, 10001."""

    def scenario(args) -> None:
        config = exp.ExperimentConfig(
            measure=measure, scheme=wts.UnitWeights(), n_grid=(101, 1001, 10001),
            profiles_per_n=profiles, seed=args.seed, high=high, low=low,
        )
        _print_report(exp.run(config))

    return scenario


def _scenario_theorem_4_3(args) -> None:
    spec = affine(-2.0)  # density 2(1-x): mean 1/3, yet mass 1/4 above 1/2
    k = wts.find_k(spec)
    scheme = wts.StochasticPoly(W=100.0, k=k, sigma_w=99.0 / 50.0)
    drift = wts.drift(spec, scheme)
    print(f"measure={spec.label} k={k} W={scheme.W:g} sigma_w={scheme.sigma_w:g} x={scheme.x:g}")
    print(f"closed-form drift per voter: {_fmt(drift)}")
    n = 10001
    profile = prof.generate(prof.IidSource(spec), n, seed=args.seed)
    rng = np.random.default_rng(args.seed)
    w = wts.sample_weight(scheme, profile.competences, rng)
    est = tally.weighted_majority_prob(profile, w, mode="mc", replicas=10_000, seed=args.seed)
    unit = tally.majority_prob_exact(profile)
    print(f"stochastic-weight win prob at n={n}: {_fmt(est.value)} +- {_fmt(est.half_width)}")
    print(f"unit-weight win prob at n={n} (contrast): {_fmt(unit.value)}")


def _scenario_catalan_border(args) -> None:
    print("m,exact,float,sqrt(pi*m)*value")
    for m in range(1, 11):
        pc = walk.border_measure(m, enumerate_paths=True)
        assert pc.enumerated == pc.closed_form
        scaled = pc.value * math.sqrt(math.pi * m)
        print(f"{m},{pc.numerator}/{pc.denominator},{_fmt(pc.value)},{_fmt(scaled)}")
    big = walk.border_measure(10_000)
    print(f"m=10000: sqrt(pi*m)*value = {_fmt(big.value * math.sqrt(math.pi * 10_000))}")


def _scenario_moa(args) -> None:
    spec = lebesgue()
    for eps in (0.05, 0.2):
        est = walk.moa_fraction_experiment(spec, 0.1, eps, 10_000, 200, seed=args.seed)
        print(f"eps0=0.1 eps={eps:g} n=10000: frequency={_fmt(est.value)} +- {_fmt(est.half_width)}")


def _print_report(report: exp.ExperimentReport) -> None:
    print(f"# seed={report.seed} config_hash={report.config_hash}")
    print("n         frac_high frac_low  median_win mean_q    drift")
    for r in report.rows:
        print(
            f"{r.n:<9} {_fmt(r.frac_high):<9} {_fmt(r.frac_low):<9} "
            f"{_fmt(r.median_win):<10} {_fmt(r.mean_q):<9} {_fmt(r.drift_estimate)}"
        )
    print(f"trend: {exp.classify_trend(report)}")


_SCENARIOS = {
    "shapley-grofman": _scenario_shapley_grofman,
    "theorem-3-2": _unit_sweep(lebesgue(), 200, 0.99, 0.01),
    "theorem-3-7": _unit_sweep(affine(1.0), 100, 0.999, 0.001),
    "anti-cjp": _unit_sweep(affine(-1.0), 100, 0.999, 0.001),
    "theorem-4-3": _scenario_theorem_4_3,
    "catalan-border": _scenario_catalan_border,
    "moa": _scenario_moa,
}


def _cmd_reproduce(args: argparse.Namespace) -> int:
    _SCENARIOS[args.scenario](args)
    return 0


# -- parser -----------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="jurylab", description=__doc__)
    parser.add_argument("--seed", type=int, default=0, help="root seed for all randomness")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tally", help="win probability for a profile")
    p.add_argument("--profile", default=None, help="comma-separated competences")
    p.add_argument("--profile-file", default=None)
    p.add_argument("--weights", default=None, help="comma-separated weights")
    p.add_argument("--weights-file", default=None)
    p.add_argument("--mode", choices=tally.MODES, default="auto")
    p.add_argument("--replicas", type=int, default=10_000)
    p.add_argument("--out", default=None)

    p = sub.add_parser("conditions", help="finite-n condition diagnostics as CSV")
    p.add_argument("--source", required=True,
                   choices=("iid", "condorcet", "moa", "c1", "c2", "explicit"))
    p.add_argument("--checkpoints", required=True, help="increasing odd integers")
    p.add_argument("--measure", default=None, help="measure JSON file (iid source)")
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--alpha", type=float, default=-0.25)
    p.add_argument("--prefix", default="", help="c2 prefix bits, comma separated")
    p.add_argument("--competences", default="", help="explicit source values")
    p.add_argument("--out", default=None)

    p = sub.add_parser("weights-sweep", help="moment criterion and drift over a scheme grid")
    p.add_argument("--measure", default=None, help="measure JSON file (default uniform)")
    p.add_argument("--w-grid", default="10,100")
    p.add_argument("--k-grid", default="1,2")
    p.add_argument("--sigma-grid", default="1.0,2.0")
    p.add_argument("--out", default=None)

    p = sub.add_parser("walk", help="ballot-path combinatorics and walk experiments")
    wsub = p.add_subparsers(dest="walk_mode", required=True)
    b = wsub.add_parser("border", help="leading-count probabilities")
    b.add_argument("--m", type=int, required=True)
    b.add_argument("--m-min", type=int, default=None)
    b.add_argument("--out", default=None)
    r = wsub.add_parser("return", help="first-passage probability estimate")
    r.add_argument("--level", type=int, required=True)
    r.add_argument("--horizon", type=int, default=100_000)
    r.add_argument("--replicas", type=int, default=10_000)
    m = wsub.add_parser("moa", help="informed-fraction frequency experiment")
    m.add_argument("--measure", default=None)
    m.add_argument("--eps0", type=float, default=0.1)
    m.add_argument("--eps", type=float, default=0.05)
    m.add_argument("--n", type=int, default=10_000)
    m.add_argument("--trials", type=int, default=200)

    p = sub.add_parser("divergence", help="divergence report for two measures")
    p.add_argument("p", help="first measure JSON file")
    p.add_argument("q", help="second measure JSON file")
    p.add_argument("--out", default=None)

    p = sub.add_parser("experiment", help="run an experiment config")
    p.add_argument("--config", required=True, help="config JSON file")
    p.add_argument("--out-dir", default=None)

    p = sub.add_parser("reproduce", help="named desk-scale scenarios")
    p.add_argument("scenario", choices=sorted(_SCENARIOS))
    return parser


_HANDLERS = {
    "tally": _cmd_tally,
    "conditions": _cmd_conditions,
    "weights-sweep": _cmd_weights_sweep,
    "walk": _cmd_walk,
    "divergence": _cmd_divergence,
    "experiment": _cmd_experiment,
    "reproduce": _cmd_reproduce,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:  # argparse handles --help (0) and bad flags
        return 0 if e.code == 0 else 1
    if getattr(args, "m_min", None) is None and getattr(args, "walk_mode", "") == "border":
        args.m_min = args.m
    if args.command == "tally" and not (args.profile or args.profile_file):
        print("error: tally needs --profile or --profile-file", file=sys.stderr)
        return 1
    try:
        return _HANDLERS[args.command](args)
    except (ValueError, TypeError, OSError, KeyError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (ArithmeticError, np.linalg.LinAlgError) as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
