"""Desk-scale experiments: win-probability sweeps over sampled profiles.

A config fixes a competence measure, a weight scheme, a grid of odd
electorate sizes and a number of iid profiles per size.  Each profile
gets a win probability (under tally_mode "auto": exact Poisson-binomial
for equal positive weights, enumeration or Monte Carlo otherwise; "brute"
and "mc" force enumeration or Monte Carlo for every scheme) and the
per-n rows summarize how often the rule is nearly perfect (win > high),
nearly always wrong (win < low), the median win probability, the mean
drift statistic and the realized per-voter weighted drift.  Almost-sure
claims are thereby replaced with sampled-profile frequencies at finite
n; the numbers are desk-scale evidence, not proofs.

The profiles of one size are drawn together, by one `generate` call per
chunk of at most _CHUNK competences; every profile still owns its
substream, so the values are those of one call per profile.  Weights
and tallies stay one call per profile (a stochastic scheme draws each
profile's weights from that profile's own substream); the drift
statistic and the weighted drift are row reductions over the chunk.
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
from .profile import IidSource, Profile, generate, q_statistics
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
# competences per `generate` call (profiles times n).  It bounds the
# chunk's stacked competences and weights at 128 KiB each; the inversion
# works in fixed blocks whatever the chunk.  A profile longer than this
# is drawn alone.
_CHUNK = 1 << 14


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


def _profile_outcome(config: ExperimentConfig, profile: Profile, j: int) -> tuple[np.ndarray, float, str]:
    """(weights, win, method) for profile j of its size."""
    n, p = profile.n, profile.competences
    scheme = config.scheme
    if scheme.stochastic:
        seed = streams.stream_key(config.seed, _WEIGHT_TAG, n, j)
        w = np.asarray(sample_weight(scheme, p, seed))
    else:
        w = np.asarray(deterministic_weight(scheme, p), dtype=float)

    if config.tally_mode == "auto" and np.all(w == w[0]) and w[0] > 0.0:
        est = majority_prob_exact(profile)
        return w, est.value, est.method
    if not np.any(w != 0.0):
        # e.g. an expert threshold nobody clears: the tally is always a
        # zero tie, which counts as a loss
        return w, 0.0, "degenerate"
    est = weighted_majority_prob(
        profile, w, mode=config.tally_mode, replicas=config.replicas,
        seed=streams.stream_key(config.seed, _WEIGHT_TAG, n, j, 1),
    )
    return w, est.value, est.method


def _chunk_outcomes(
    config: ExperimentConfig, source: IidSource, n: int, js: range
) -> tuple[list[float], np.ndarray, np.ndarray, set[str]]:
    """(wins, q, drifts, methods) of profiles js of size n, drawn by one
    `generate` call; q and drifts are row reductions over the chunk."""
    seeds = [streams.stream_key(config.seed, _PROFILE_TAG, n, j) for j in js]
    profiles = generate(source, n, seeds)
    outcomes = [_profile_outcome(config, prof, j) for prof, j in zip(profiles, js)]
    p = np.stack([prof.competences for prof in profiles])
    w = np.stack([o[0] for o in outcomes])
    drifts = np.mean(w * (2.0 * p - 1.0), axis=1)
    return [o[1] for o in outcomes], q_statistics(p), drifts, {o[2] for o in outcomes}


def run(config: ExperimentConfig) -> ExperimentReport:
    """Evaluate the config; deterministic for a given seed (profiles own
    independent substreams)."""
    source = IidSource(config.measure)
    rows = []
    for n in config.n_grid:
        per_call = max(1, _CHUNK // n)
        chunks = [
            _chunk_outcomes(config, source, n, range(lo, min(lo + per_call, config.profiles_per_n)))
            for lo in range(0, config.profiles_per_n, per_call)
        ]
        wins = np.concatenate([c[0] for c in chunks])
        qs = np.concatenate([c[1] for c in chunks])
        rows.append(
            ExperimentRow(
                n=n,
                frac_high=float(np.mean(wins > config.high)),
                frac_low=float(np.mean(wins < config.low)),
                median_win=float(np.median(wins)),
                mean_q=float(np.nanmean(qs)) if not np.all(np.isnan(qs)) else float("nan"),
                drift_estimate=float(np.mean(np.concatenate([c[2] for c in chunks]))),
                method="+".join(sorted(set().union(*(c[3] for c in chunks)))),
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
