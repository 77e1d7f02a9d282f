"""The benchmark's four workloads.

A workload runs in rounds.  `inputs(seed, r)` builds round r's inputs
from the run's seed, `execute(inputs)` makes the timed calls into
jurylab, and `check(...)` compares every output with a reference from
`checks.py`, outside the timed span.  Every round attempts the same
operations, so the share of failed operations does not depend on the
seed or on how many rounds a run fits in.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

import checks
from jurylab import divergence, experiment, profile, tally, walk, weights
from jurylab.experiment import ExperimentConfig
from jurylab.measure import MeasureSpec, affine, lebesgue
from jurylab.weights import BoundedPoly, ExpertRule, LogOdds, StochasticPoly, UnitWeights


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.errors.append(what)

    def fail(self) -> None:
        self.attempted += 1
        self.failed += 1


def derive(seed: int, *path: int) -> int:
    """A 63-bit seed for one input of one round."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1, np.uint64)[0] >> 1)


def check_exact(records, res: Result, label: str, mirror_max_n: int) -> None:
    """Unit-weight win probabilities: the FFT tail for every profile, and
    the mirror identity for the first profile of each size up to
    mirror_max_n."""
    mirrored: set[int] = set()
    for attr, args, _, est in records:
        if attr != "majority_prob_exact":
            continue
        prof = args[0]
        ok = checks.exact_tail_ok(prof.competences, est.value)
        if prof.n <= mirror_max_n and prof.n not in mirrored:
            mirrored.add(prof.n)
            ok = ok and checks.mirror_ok(est.value, tally.anti_majority_prob_exact(prof).value)
        res.op(ok, f"{label} n={prof.n}: exact win {est.value!r}")


class LargeExact:
    """Unit-weight sweeps at n up to 20001: the O(n^2) exact DP."""

    GRID = (1001, 5001, 10001, 20001)
    PROFILES = 10
    # the paper's null, CJT and anti-CJT settings, with their trend class
    SWEEPS = ((lebesgue(), "null_like"), (affine(1.0), "cjp_like"), (affine(-1.0), "anti_cjp_like"))

    def __init__(self, capture) -> None:
        self.capture = capture

    def inputs(self, seed: int, r: int):
        return [
            ExperimentConfig(
                measure=spec,
                scheme=UnitWeights(),
                n_grid=self.GRID,
                profiles_per_n=self.PROFILES,
                seed=derive(seed, r, i),
            )
            for i, (spec, _) in enumerate(self.SWEEPS)
        ]

    def execute(self, configs):
        out = []
        for config in configs:
            report = experiment.run(config)
            out.append((experiment.classify_trend(report), self.capture.take()))
        return out

    def check(self, configs, outputs, seed: int, r: int, res: Result) -> None:
        for (spec, expected), (trend, records) in zip(self.SWEEPS, outputs):
            res.op(trend == expected, f"{spec.label}: trend {trend}, expected {expected}")
            check_exact(records, res, spec.label, mirror_max_n=5001)


class SmallCommittees:
    """Many profiles at small odd n: weighted rules by enumeration up to
    n = 17, unit weights up to n = 201."""

    WEIGHTED = (
        (LogOdds(), lebesgue()),
        (BoundedPoly(W=10.0, k=2), affine(-1.0)),
        (ExpertRule(threshold=0.8), lebesgue()),
    )
    WEIGHTED_GRID = (5, 9, 13, 17)
    WEIGHTED_PROFILES = 40
    UNIT = (lebesgue(), affine(1.0), affine(-1.0))
    UNIT_GRID = (11, 25, 51, 101, 151, 201)
    UNIT_PROFILES = 80

    def __init__(self, capture) -> None:
        self.capture = capture

    def inputs(self, seed: int, r: int):
        weighted = [
            ExperimentConfig(
                measure=spec,
                scheme=scheme,
                n_grid=self.WEIGHTED_GRID,
                profiles_per_n=self.WEIGHTED_PROFILES,
                seed=derive(seed, r, 0, i),
            )
            for i, (scheme, spec) in enumerate(self.WEIGHTED)
        ]
        unit = [
            ExperimentConfig(
                measure=spec,
                scheme=UnitWeights(),
                n_grid=self.UNIT_GRID,
                profiles_per_n=self.UNIT_PROFILES,
                seed=derive(seed, r, 1, i),
            )
            for i, spec in enumerate(self.UNIT)
        ]
        return weighted + unit

    def execute(self, configs):
        out = []
        for config in configs:
            experiment.run(config)
            out.append(self.capture.take())
        return out

    def check(self, configs, outputs, seed: int, r: int, res: Result) -> None:
        for config, records in zip(configs, outputs):
            label = f"{type(config.scheme).__name__} on {config.measure.label}"
            if isinstance(config.scheme, UnitWeights):
                check_exact(records, res, label, mirror_max_n=51)
                continue
            for ps, w, tallied in _per_profile(records):
                if tallied is None:
                    ok = isinstance(config.scheme, ExpertRule) and checks.degenerate_ok(
                        ps, config.scheme.threshold
                    )
                    res.op(ok, f"{label} n={len(ps)}: degenerate tally")
                elif tallied[0] == "majority_prob_exact":
                    check_exact([tallied], res, label, mirror_max_n=0)
                else:
                    est = tallied[3]
                    ok = est.method == "brute_force" and checks.brute_ok(ps, w, est.value, est.tie_prob)
                    res.op(ok, f"{label} n={len(ps)}: brute {est.value!r} tie {est.tie_prob!r}")


def _per_profile(records):
    """(p, w, tally record or None) per profile: each profile's weights
    come first, then its tally call unless no voter has weight."""
    out = []
    for rec in records:
        if rec[0] == "deterministic_weight":
            out.append([np.asarray(rec[1][1], dtype=float), np.asarray(rec[3]), None])
        else:
            out[-1][2] = rec
    return out


class WeightedMC:
    """Theorem 4.3: affine(-2) voters under stochastic bounded weights,
    Monte Carlo tallies at n = 101 to 10001.

    The inputs are fixed, not drawn from the run's seed: the Monte Carlo
    tally reports a zero-width interval whenever every replica wins.  On
    random profiles that happens at some seeds even at n = 101, and these
    failed operations must repeat exactly.  The seed drives the
    independent simulation that checks the estimates.
    """

    SPEC = affine(-2.0)
    GRID = (101, 301, 1001, 3001, 10001)
    PROFILES = 10
    REPLICAS = 2000
    CONFIG_SEED = 4300
    REF_REPLICAS = 8000
    REF_PER_N = 2

    def __init__(self, capture) -> None:
        self.capture = capture
        self.scheme = StochasticPoly(W=100.0, k=weights.find_k(self.SPEC), sigma_w=1.98)

    def inputs(self, seed: int, r: int):
        return ExperimentConfig(
            measure=self.SPEC,
            scheme=self.scheme,
            n_grid=self.GRID,
            profiles_per_n=self.PROFILES,
            replicas=self.REPLICAS,
            seed=self.CONFIG_SEED,
        )

    def execute(self, config):
        experiment.run(config)
        return self.capture.take()

    def check(self, config, records, seed: int, r: int, res: Result) -> None:
        rng = np.random.default_rng([seed, r])
        referenced: dict[int, int] = {}
        for _, args, _, est in records:
            prof, w = args[0], np.asarray(args[1])
            if est.half_width == 0.0:
                res.fail()
                continue
            ok = est.method == "monte_carlo" and checks.hoeffding_ok(
                prof.competences, w, est.value, est.half_width
            )
            if referenced.get(prof.n, 0) < self.REF_PER_N:
                referenced[prof.n] = referenced.get(prof.n, 0) + 1
                wins = checks.mc_reference_wins(prof.competences, w, self.REF_REPLICAS, rng)
                ok = ok and checks.mc_agrees(est.value, est.n_replicas, wins, self.REF_REPLICAS)
            res.op(ok, f"weighted n={prof.n}: {est.value!r} +- {est.half_width!r}")


# A piece whose density at one end is below this share of its density at
# the other end is redrawn: when q's density nearly vanishes at a piece
# end where p has mass, divergences(p, q) can run for minutes (see the
# FOUND line in CHANGES.md).
NEAR_ROOT = 1e-3


def random_measure(rng: np.random.Generator, kind: int) -> MeasureSpec:
    """kind 0: a tilted uniform; 1: two affine pieces; 2: two pieces and
    an atom.  Total mass is exactly 1 up to rounding."""
    while True:
        spec = _draw_measure(rng, kind)
        ends = [(c0 + c1 * lo, c0 + c1 * hi) for lo, hi, c0, c1 in spec.pieces]
        if all(min(e) >= NEAR_ROOT * max(e) for e in ends):
            return spec


def _draw_measure(rng: np.random.Generator, kind: int) -> MeasureSpec:
    if kind == 0:
        return affine(float(rng.uniform(-2.0, 2.0)))
    pts = np.sort(rng.uniform(0.0, 1.0, 4))
    while np.min(np.diff(pts)) < 0.05:
        pts = np.sort(rng.uniform(0.0, 1.0, 4))
    pieces = []
    raw_mass = 0.0
    for lo, hi in ((pts[0], pts[1]), (pts[2], pts[3])):
        c0 = float(rng.uniform(0.1, 2.0))
        c1 = float(rng.uniform(-c0 / hi, 1.0))
        pieces.append((float(lo), float(hi), c0, c1))
        raw_mass += c0 * (hi - lo) + 0.5 * c1 * (hi * hi - lo * lo)
    atom = float(rng.uniform(0.05, 0.4)) if kind == 2 else 0.0
    scale = (1.0 - atom) / raw_mass
    return MeasureSpec(
        pieces=tuple((lo, hi, c0 * scale, c1 * scale) for lo, hi, c0, c1 in pieces),
        atoms=((float(rng.uniform(0.0, 1.0)), atom),) if atom else (),
    )


@dataclass
class DiagnosticsInputs:
    pairs: list
    identities: list
    families: list  # (expected diagnosis, perturbations)
    drifts: list  # (spec, scheme)
    conditions: list  # (source, seed)
    walks: list  # (level, seed)


class Diagnostics:
    """Divergences, Kakutani scans, drifts, condition traces and ballot
    paths: quadrature-heavy calls with no tally work."""

    PAIRS = 8000
    IDENTITIES = 200
    FAMILIES = 20  # of each kind
    HORIZON = 64
    DRIFT_MEASURES = 24
    DRIFT_GRID = tuple(
        (W, k, sigma) for W in (10.0, 100.0) for k in (1, 2, 4) for sigma in (0.5, 1.98, 10.0)
    )
    CONDITIONS = 2
    CHECKPOINT_MAX = 2_000_001
    WALKS = 4
    WALK_HORIZON = 1000
    WALK_REPLICAS = 4000
    BORDER_M = 11
    DIV_REF = 40
    DRIFT_REF = 6

    def __init__(self, capture) -> None:
        self.checkpoints = profile.geometric_checkpoints(1, self.CHECKPOINT_MAX)

    def inputs(self, seed: int, r: int) -> DiagnosticsInputs:
        rng = np.random.default_rng([seed, r])
        pairs = [
            (random_measure(rng, i % 3), random_measure(rng, (i // 3) % 3))
            for i in range(self.PAIRS)
        ]
        identities = [affine(float(b)) for b in rng.uniform(-2.0, 2.0, self.IDENTITIES)]
        families = []
        for _ in range(self.FAMILIES):
            c, ratio = rng.uniform(0.5, 2.0), rng.uniform(0.3, 0.7)
            families.append(("summable", [affine(c * ratio**i) for i in range(1, self.HORIZON + 1)]))
            b = float(rng.uniform(0.3, 2.0))
            families.append(("diverging", [affine(b)] * self.HORIZON))
        drifts = [
            (affine(float(b)), StochasticPoly(W=W, k=k, sigma_w=sigma))
            for b in rng.uniform(-2.0, 2.0, self.DRIFT_MEASURES)
            for W, k, sigma in self.DRIFT_GRID
        ]
        conditions = [
            (profile.IidSource(affine(float(b))), derive(seed, r, i))
            for i, b in enumerate(rng.uniform(-1.0, 1.0, self.CONDITIONS))
        ]
        walks = [(int(k), derive(seed, r, 100 + i)) for i, k in enumerate(rng.integers(5, 16, self.WALKS))]
        return DiagnosticsInputs(pairs, identities, families, drifts, conditions, walks)

    def execute(self, inp: DiagnosticsInputs):
        return (
            [divergence.divergences(p, q) for p, q in inp.pairs],
            [divergence.divergences(s, s) for s in inp.identities],
            [
                divergence.kakutani_criterion(lebesgue(), iter(family), "tv", horizon=self.HORIZON)
                for _, family in inp.families
            ],
            [weights.drift(spec, scheme) for spec, scheme in inp.drifts],
            [profile.condition_report(src, self.checkpoints, seed=s) for src, s in inp.conditions],
            [
                walk.random_walk_return(k, self.WALK_HORIZON, self.WALK_REPLICAS, seed=s)
                for k, s in inp.walks
            ],
            walk.border_measure(self.BORDER_M, enumerate_paths=True),
        )

    def check(self, inp: DiagnosticsInputs, outputs, seed: int, r: int, res: Result) -> None:
        reports, identities, verdicts, drifts, conditions, walks, border = outputs
        for i, ((p, q), rep) in enumerate(zip(inp.pairs, reports)):
            ok = checks.inequalities_ok(rep)
            if i < self.DIV_REF:
                ok = ok and checks.divergence_ok(p, q, rep)
            res.op(ok, f"divergences pair {i}: {rep}")
        for spec, rep in zip(inp.identities, identities):
            res.op(checks.identity_ok(rep), f"identity {spec.label}: {rep}")
        for (expected, _), verdict in zip(inp.families, verdicts):
            res.op(checks.kakutani_ok(verdict, expected), f"kakutani {verdict.diagnosis}, expected {expected}")
        for i, ((spec, scheme), value) in enumerate(zip(inp.drifts, drifts)):
            ok = np.isfinite(value)
            if i % (len(drifts) // self.DRIFT_REF) == 0:
                _, _, c0, c1 = spec.pieces[0]
                ok = ok and checks.drift_ok(c0, c1, scheme.W, scheme.k, scheme.sigma_w, value)
            res.op(ok, f"drift {spec.label} {scheme}: {value!r}")
        for (src, s), rep in zip(inp.conditions, conditions):
            ps = profile.generate(src, self.checkpoints[-1], s).competences
            res.op(checks.condition_ok(ps, self.checkpoints, rep.q_trace), f"condition report {src}")
        for (k, _), est in zip(inp.walks, walks):
            res.op(
                checks.walk_ok(k, self.WALK_HORIZON, est.value, est.half_width),
                f"walk level {k}: {est.value!r} +- {est.half_width!r}",
            )
        res.op(checks.border_ok(self.BORDER_M, border), f"border m={self.BORDER_M}: {border}")


WORKLOADS = {
    "large_exact": LargeExact,
    "small_committees": SmallCommittees,
    "weighted_mc": WeightedMC,
    "diagnostics": Diagnostics,
}
