"""Self-test of the benchmark's checks: each accepts jurylab's output and
rejects the same output moved by a small amount.

    python3 bench/selftest.py

Exits 0 when every check both accepts and rejects as it should.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import checks  # noqa: E402
from jurylab import (  # noqa: E402
    IidSource,
    LogOdds,
    MeasureSpec,
    StochasticPoly,
    affine,
    anti_majority_prob_exact,
    border_measure,
    condition_report,
    deterministic_weight,
    divergences,
    drift,
    generate,
    geometric_checkpoints,
    kakutani_criterion,
    lebesgue,
    majority_prob_exact,
    random_walk_return,
    sample_weight,
    weighted_majority_prob,
)
from workloads import random_measure  # noqa: E402


def main() -> int:
    failures: list[str] = []

    def expect(name: str, accepted: bool, rejected: list[tuple[str, bool]]) -> None:
        """`accepted`: the check on the real output; `rejected`: the
        check on each perturbed output, which must be False."""
        if not accepted:
            failures.append(f"{name}: rejects the program's own output")
        failures.extend(f"{name}: accepts {what}" for what, verdict in rejected if verdict)
        print(f"{'ok  ' if accepted and not any(v for _, v in rejected) else 'FAIL'} {name}")

    rng = np.random.default_rng(2024)

    prof = generate(IidSource(lebesgue()), 1001, seed=3)
    v = majority_prob_exact(prof).value
    expect("exact tail", checks.exact_tail_ok(prof.competences, v), [
        ("win + 1e-6", checks.exact_tail_ok(prof.competences, v + 1e-6)),
        ("win - 1e-6", checks.exact_tail_ok(prof.competences, v - 1e-6)),
    ])
    mirrored = anti_majority_prob_exact(prof).value
    expect("mirror identity", checks.mirror_ok(v, mirrored), [
        ("win + 1e-6", checks.mirror_ok(v + 1e-6, mirrored)),
    ])

    prof = generate(IidSource(lebesgue()), 13, seed=5)
    w = deterministic_weight(LogOdds(), prof.competences)
    est = weighted_majority_prob(prof, w, mode="brute")
    ps = prof.competences
    expect("brute-force enumeration", checks.brute_ok(ps, w, est.value, est.tie_prob), [
        ("win + 1e-10", checks.brute_ok(ps, w, est.value + 1e-10, est.tie_prob)),
        ("tie + 1e-10", checks.brute_ok(ps, w, est.value, est.tie_prob + 1e-10)),
    ])
    expect("degenerate expert rule", checks.degenerate_ok(np.array([0.1, 0.5, 0.79]), 0.8), [
        ("a voter at the threshold", checks.degenerate_ok(np.array([0.1, 0.5, 0.8]), 0.8)),
    ])

    spec = affine(-2.0)
    scheme = StochasticPoly(W=100.0, k=2, sigma_w=1.98)
    prof = generate(IidSource(spec), 101, seed=11)
    w = np.asarray(sample_weight(scheme, prof.competences, np.random.default_rng(1)))
    est = weighted_majority_prob(prof, w, mode="mc", replicas=2000, seed=4)
    ref = checks.mc_reference_wins(prof.competences, w, 8000, rng)
    pushed = est.value - 4.0 * est.half_width
    expect("Monte Carlo vs numpy simulation", checks.mc_agrees(est.value, 2000, ref, 8000), [
        ("value - 4 half-widths", checks.mc_agrees(pushed, 2000, ref, 8000)),
    ])
    prof = generate(IidSource(spec), 3001, seed=12)
    w = np.asarray(sample_weight(scheme, prof.competences, np.random.default_rng(2)))
    est = weighted_majority_prob(prof, w, mode="mc", replicas=2000, seed=5)
    bound = checks.hoeffding_lower_bound(prof.competences, w)
    expect("Hoeffding lower bound", checks.hoeffding_ok(prof.competences, w, est.value, est.half_width), [
        ("value below the bound", checks.hoeffding_ok(
            prof.competences, w, bound - est.half_width - 1e-6, est.half_width)),
    ])

    rep = divergences(affine(1.5), affine(1.5))
    expect("identity pair", checks.identity_ok(rep), [
        ("affinity 1 - 1 ulp", checks.identity_ok(replace(rep, hellinger_affinity=1.0 - 2.0**-53))),
        ("Hellinger distance 1.5e-8", checks.identity_ok(replace(rep, hellinger_distance=1.5e-8))),
    ])
    apart = divergences(
        MeasureSpec(pieces=((0.0, 0.5, 2.0, 0.0),)), MeasureSpec(pieces=((0.5, 1.0, 2.0, 0.0),))
    )
    expect("criterion 8 inequalities", checks.inequalities_ok(rep) and checks.inequalities_ok(apart), [
        ("disjoint TV - 1e-7", checks.inequalities_ok(replace(apart, tv=apart.tv - 1e-7))),
        ("identity KL - 1e-7", checks.inequalities_ok(replace(rep, kl=-1e-7))),
        ("identity Bhattacharyya - 1e-7", checks.inequalities_ok(replace(rep, bhattacharyya=-1e-7))),
    ])
    p, q = random_measure(rng, 2), random_measure(rng, 1)
    rep = divergences(p, q)
    expect("divergences vs quad", checks.divergence_ok(p, q, rep), [
        (f"{f} + 1e-7", checks.divergence_ok(p, q, replace(rep, **{f: getattr(rep, f) + 1e-7})))
        for f in ("tv", "hellinger_affinity")
    ])
    p, q = random_measure(rng, 1), random_measure(rng, 0)
    rep = divergences(p, q)
    expect("KL vs quad", checks.divergence_ok(p, q, rep), [
        ("kl + 1e-7", checks.divergence_ok(p, q, replace(rep, kl=rep.kl + 1e-7))),
    ])

    verdict = kakutani_criterion(lebesgue(), (affine(1.5 * 0.5**i) for i in range(1, 65)), "tv")
    bumped = verdict.partial_products.copy()
    bumped[-1] += 1e-12
    expect("Kakutani scan", checks.kakutani_ok(verdict, "summable"), [
        ("another diagnosis", checks.kakutani_ok(verdict, "diverging")),
        ("a rising product", checks.kakutani_ok(replace(verdict, partial_products=bumped), "summable")),
    ])

    value = drift(affine(-1.0), StochasticPoly(W=100.0, k=2, sigma_w=1.98))
    c0, c1 = affine(-1.0).pieces[0][2:]
    expect("drift vs quad", checks.drift_ok(c0, c1, 100.0, 2, 1.98, value), [
        ("drift * (1 + 1e-7)", checks.drift_ok(c0, c1, 100.0, 2, 1.98, value * (1.0 + 1e-7))),
    ])

    cps = geometric_checkpoints(1, 200_001)
    source = IidSource(affine(0.5))
    trace = condition_report(source, cps, seed=7).q_trace
    ps = generate(source, cps[-1], seed=7).competences
    moved = trace.copy()
    moved[-1] *= 1.0 + 1e-6
    expect("condition report vs fsum", checks.condition_ok(ps, cps, trace), [
        ("last Q * (1 + 1e-6)", checks.condition_ok(ps, cps, moved)),
    ])

    est = random_walk_return(10, 1000, 4000, seed=9)
    outside = est.value + 1.5 * est.half_width * checks.Z_MC / 1.96
    expect("random walk vs reflection", checks.walk_ok(10, 1000, est.value, est.half_width), [
        ("value outside the widened interval", checks.walk_ok(10, 1000, outside, est.half_width)),
    ])

    count = border_measure(6, enumerate_paths=True)
    expect("border enumeration", checks.border_ok(6, count), [
        ("one path more", checks.border_ok(6, replace(count, enumerated=count.enumerated + Fraction(1, 2**13)))),
    ])

    for f in failures:
        print(f"selftest: {f}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
