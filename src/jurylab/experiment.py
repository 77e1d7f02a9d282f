"""Desk-scale experiments: win-probability sweeps over sampled profiles.

A config fixes a competence measure, a weight scheme, a grid of odd
electorate sizes and a number of iid profiles per size.  Each profile
gets a win probability (exact Poisson-binomial for equal deterministic
weights, enumeration or Monte Carlo otherwise) and the per-n rows
summarize how often the rule is nearly perfect (win > high), nearly
always wrong (win < low), the median win probability, the mean drift
statistic and the realized per-voter weighted drift.  Almost-sure
claims are thereby replaced with sampled-profile frequencies at finite
n; the numbers are desk-scale evidence, not proofs.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import asdict, dataclass

import numpy as np

from . import streams
from .measure import MeasureSpec, from_dict as measure_from_dict, to_dict as measure_to_dict
from .profile import DegenerateProfileError, IidSource, Profile, generate, q_statistic
from .tally import MAX_BRUTE_N, MODES, majority_prob_exact, weighted_majority_prob
from .weights import SCHEMES, WeightScheme, deterministic_weight, sample_weight

__all__ = [
    "ExperimentConfig",
    "ExperimentRow",
    "ExperimentReport",
    "run",
    "classify_trend",
    "scheme_to_dict",
    "scheme_from_dict",
    "config_to_dict",
    "config_from_dict",
    "json_digest",
    "report_to_csv",
    "report_to_json",
    "report_to_svg",
]

_PROFILE_TAG = 0xE41
_WEIGHT_TAG = 0xE42


@dataclass(frozen=True)
class ExperimentConfig:
    measure: MeasureSpec
    scheme: WeightScheme
    n_grid: tuple[int, ...]
    profiles_per_n: int
    tally_mode: str = "auto"
    replicas: int = 10_000
    seed: int = 0
    high: float = 0.99
    low: float = 0.01

    def __post_init__(self) -> None:
        grid = tuple(int(n) for n in self.n_grid)
        object.__setattr__(self, "n_grid", grid)
        if not grid or any(n % 2 == 0 or n < 1 for n in grid):
            raise ValueError("n_grid must contain odd positive sizes")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("n_grid must be strictly increasing")
        if self.profiles_per_n < 10:
            raise ValueError("need at least 10 profiles per n")
        if not 0.0 < self.low < self.high < 1.0:
            raise ValueError("need 0 < low < high < 1")
        if self.tally_mode not in MODES:
            raise ValueError(f"unknown tally_mode {self.tally_mode!r}, expected one of {MODES}")
        if self.tally_mode == "brute" and grid[-1] > MAX_BRUTE_N:
            raise ValueError(f"tally_mode 'brute' enumerates at most n={MAX_BRUTE_N}, got {grid[-1]}")
        if self.replicas < 100:
            raise ValueError("need at least 100 replicas")


@dataclass(frozen=True)
class ExperimentRow:
    n: int
    frac_high: float
    frac_low: float
    median_win: float
    mean_q: float
    drift_estimate: float
    method: str


@dataclass(frozen=True)
class ExperimentReport:
    rows: tuple[ExperimentRow, ...]
    config_hash: str
    seed: int


def _profile_outcome(config: ExperimentConfig, n: int, j: int) -> tuple[float, float, float, str]:
    """(win, q, drift, method) for profile j of size n."""
    prof_seed = streams.stream_key(config.seed, _PROFILE_TAG, n, j)
    profile = generate(IidSource(config.measure), n, seed=prof_seed)
    p = profile.competences
    try:
        q = q_statistic(profile)
    except DegenerateProfileError:
        q = float("nan")

    scheme = config.scheme
    if scheme.stochastic:
        rng = streams.generator(config.seed, _WEIGHT_TAG, n, j)
        w = np.asarray(sample_weight(scheme, p, rng))
    else:
        w = np.asarray(deterministic_weight(scheme, p), dtype=float)

    equal_weights = bool(np.all(w == w[0]) and w[0] > 0.0)
    if equal_weights:
        win = majority_prob_exact(profile).value
        method = "exact_dp"
    elif not np.any(w != 0.0):
        # e.g. an expert threshold nobody clears: the tally is always a
        # zero tie, which counts as a loss
        win = 0.0
        method = "degenerate"
    else:
        est = weighted_majority_prob(
            profile, w, mode=config.tally_mode, replicas=config.replicas,
            seed=streams.stream_key(config.seed, _WEIGHT_TAG, n, j, 1),
        )
        win = est.value
        method = est.method
    drift = float(np.mean(w * (2.0 * p - 1.0)))
    return win, q, drift, method


def run(config: ExperimentConfig) -> ExperimentReport:
    """Evaluate the config; deterministic for a given seed (profiles own
    independent substreams)."""
    rows = []
    for n in config.n_grid:
        outcomes = [_profile_outcome(config, n, j) for j in range(config.profiles_per_n)]
        wins = np.array([o[0] for o in outcomes])
        qs = np.array([o[1] for o in outcomes])
        drifts = np.array([o[2] for o in outcomes])
        methods = {o[3] for o in outcomes}
        rows.append(
            ExperimentRow(
                n=n,
                frac_high=float(np.mean(wins > config.high)),
                frac_low=float(np.mean(wins < config.low)),
                median_win=float(np.median(wins)),
                mean_q=float(np.nanmean(qs)) if not np.all(np.isnan(qs)) else float("nan"),
                drift_estimate=float(np.mean(drifts)),
                method="+".join(sorted(methods)),
            )
        )
    return ExperimentReport(rows=tuple(rows), config_hash=config_hash(config), seed=config.seed)


def classify_trend(report: ExperimentReport) -> str:
    """cjp_like / anti_cjp_like / null_like from the fraction columns."""
    if len(report.rows) < 3:
        raise ValueError("need at least 3 rows to classify a trend")
    high = [r.frac_high for r in report.rows]
    low = [r.frac_low for r in report.rows]
    if all(b >= a for a, b in zip(high, high[1:])) and high[-1] >= 0.95:
        return "cjp_like"
    if all(b >= a for a, b in zip(low, low[1:])) and low[-1] >= 0.95:
        return "anti_cjp_like"
    return "null_like"


# -- serialization ----------------------------------------------------------

def scheme_to_dict(scheme: WeightScheme) -> dict:
    return {"kind": scheme.kind, **asdict(scheme)}


def scheme_from_dict(doc: dict) -> WeightScheme:
    fields = dict(doc)
    kind = fields.pop("kind", None)
    if kind not in SCHEMES:
        raise ValueError(f"unknown scheme kind {kind!r}")
    return SCHEMES[kind](**fields)


def config_to_dict(config: ExperimentConfig) -> dict:
    return {
        "measure": measure_to_dict(config.measure),
        "scheme": scheme_to_dict(config.scheme),
        "n_grid": list(config.n_grid),
        "profiles_per_n": config.profiles_per_n,
        "tally_mode": config.tally_mode,
        "replicas": config.replicas,
        "seed": config.seed,
        "thresholds": [config.high, config.low],
    }


def config_from_dict(doc: dict) -> ExperimentConfig:
    high, low = doc.get("thresholds", [0.99, 0.01])
    return ExperimentConfig(
        measure=measure_from_dict(doc["measure"]),
        scheme=scheme_from_dict(doc["scheme"]),
        n_grid=tuple(int(n) for n in doc["n_grid"]),
        profiles_per_n=int(doc["profiles_per_n"]),
        tally_mode=str(doc.get("tally_mode", "auto")),
        replicas=int(doc.get("replicas", 10_000)),
        seed=int(doc.get("seed", 0)),
        high=float(high),
        low=float(low),
    )


def json_digest(doc) -> str:
    """First 16 hex digits of the SHA-256 of doc as key-sorted JSON."""
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]


def config_hash(config: ExperimentConfig) -> str:
    return json_digest(config_to_dict(config))


_ROW_FIELDS = ("n", "frac_high", "frac_low", "median_win", "mean_q", "drift_estimate", "method")


def report_to_csv(report: ExperimentReport) -> str:
    buf = io.StringIO()
    buf.write(f"# seed={report.seed} config_hash={report.config_hash}\n")
    writer = csv.writer(buf)
    writer.writerow(_ROW_FIELDS)
    for r in report.rows:
        writer.writerow([getattr(r, f) for f in _ROW_FIELDS])
    return buf.getvalue()


def report_to_json(report: ExperimentReport) -> str:
    doc = {
        "seed": report.seed,
        "config_hash": report.config_hash,
        "rows": [{f: getattr(r, f) for f in _ROW_FIELDS} for r in report.rows],
    }
    return json.dumps(doc, indent=2)


def report_to_svg(report: ExperimentReport) -> str:
    """Plain 640 by 400 polyline chart of the high/low fractions against n."""
    width, height, pad = 640, 400, 50
    ns = [r.n for r in report.rows]
    xs = np.log10(np.asarray(ns, dtype=float))
    x0, x1 = float(xs.min()), float(xs.max())
    span = (x1 - x0) or 1.0

    def sx(v: float) -> float:
        return pad + (v - x0) / span * (width - 2 * pad)

    def sy(frac: float) -> float:
        return height - pad - frac * (height - 2 * pad)

    def polyline(vals: list[float], color: str) -> str:
        pts = " ".join(f"{sx(x):.2f},{sy(v):.2f}" for x, v in zip(xs, vals))
        return f'<polyline fill="none" stroke="{color}" stroke-width="2" points="{pts}"/>'

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>',
        polyline([r.frac_high for r in report.rows], "#c0392b"),
        polyline([r.frac_low for r in report.rows], "#2e86c1"),
        f'<text x="{pad}" y="{pad - 10}" font-size="12">fraction win&gt;high (red) / win&lt;low (blue) vs log10 n'
        f' [seed={report.seed} config={report.config_hash}]</text>',
    ]
    for n, x in zip(ns, xs):
        parts.append(
            f'<text x="{sx(x):.2f}" y="{height - pad + 16}" font-size="10" text-anchor="middle">{n}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)
