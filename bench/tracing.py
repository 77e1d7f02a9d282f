"""Timing and capture wrappers bound over jurylab's public names.

Nothing under `src/` changes.  Inside the benchmark process only, a
function is wrapped by rebinding every jurylab module attribute that
refers to it: the defining module and each module that imported the
name.  jurylab looks these names up at call time, so its own calls go
through the wrapper too.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

# Spans of the first round are kept for the trace file; later rounds
# only add to the per-name totals.
SPAN_CAP = 200_000


def rebind(orig, replacement) -> None:
    """Point every loaded jurylab attribute that is `orig` at `replacement`."""
    for name, mod in list(sys.modules.items()):
        if name == "jurylab" or name.startswith("jurylab."):
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, replacement)


class Capture:
    """Records the tally and weight calls `experiment.run` makes.

    An experiment report keeps only per-size summaries; the checks need
    each profile's estimate, so these three names are wrapped in the
    experiment module, untraced runs included.
    """

    NAMES = ("majority_prob_exact", "weighted_majority_prob", "deterministic_weight")

    def __init__(self) -> None:
        from jurylab import experiment

        self.records: list[tuple] = []
        for attr in self.NAMES:
            setattr(experiment, attr, self._wrap(attr, getattr(experiment, attr)))

    def _wrap(self, attr, fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.records.append((attr, args, kwargs, out))
            return out

        return wrapper

    def take(self) -> list[tuple]:
        records, self.records = self.records, []
        return records


class Tracer:
    """Spans (name, start, end, parent) and counts, kept in memory."""

    def __init__(self) -> None:
        self.active = False
        self.keep_spans = True
        self.stack: list[list] = []
        self.spans: list[tuple] = []
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()

    def span(self, name: str, fn, on_exit=None):
        """Wrap fn in a span; on_exit(args, kwargs, result) may add counts
        and return a more specific span name."""

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = self.stack[-1][2] if self.stack else -1
            frame = [0.0, 0.0, -1]  # child time, start, span index
            if self.keep_spans and len(self.spans) < SPAN_CAP:
                frame[2] = len(self.spans)
                self.spans.append(None)
            self.stack.append(frame)
            frame[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
            label = (on_exit(args, kwargs, out) if on_exit else None) or name
            elapsed = end - frame[1]
            self.total[label] += elapsed
            self.self_time[label] += elapsed - frame[0]
            self.counts[label + ".calls"] += 1
            if self.stack:
                self.stack[-1][0] += elapsed
            if frame[2] >= 0:
                self.spans[frame[2]] = (label, frame[1], end, parent)
            return out

        return wrapper

    def counter(self, name: str, fn):
        def wrapper(*args, **kwargs):
            if self.active:
                self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper


def install(tracer: Tracer) -> None:
    """Wrap the public functions each per-layer metric is taken from."""
    from jurylab import (
        divergence,
        experiment,
        measure,
        profile,
        quadrature,
        streams,
        tally,
        walk,
        weights,
    )

    counts = tracer.counts

    def run_exit(args, kwargs, out):
        config = args[0] if args else kwargs["config"]
        counts["experiment.profiles"] += len(config.n_grid) * config.profiles_per_n

    def exact_exit(args, kwargs, out):
        return f"tally.exact.n{(args[0] if args else kwargs['profile']).n}"

    def weighted_exit(args, kwargs, out):
        n = (args[0] if args else kwargs["profile"]).n
        if out.method == "brute_force":
            counts["tally.brute_outcomes"] += 1 << n
            return "tally.brute"
        counts["tally.mc_draws"] += out.n_replicas * n
        counts["tally.mc_zero_width"] += out.half_width == 0.0
        return "tally.mc"

    def quantile_exit(args, kwargs, out):
        counts["measure.quantile_values"] += getattr(out, "size", 1)

    def uniforms_exit(args, kwargs, out):
        counts["streams.draws"] += out.size

    spans = [
        (experiment, "run", "experiment.run", run_exit),
        (profile, "generate", "profile.generate", None),
        (measure, "quantile", "measure.quantile", quantile_exit),
        (streams, "uniforms", "streams.uniforms", uniforms_exit),
        (streams, "uniforms_block", "streams.uniforms_block", uniforms_exit),
        (tally, "majority_prob_exact", "tally.exact", exact_exit),
        (tally, "weighted_majority_prob", "tally.weighted", weighted_exit),
        (weights, "sample_weight", "weights.sample_weight", None),
        (weights, "drift", "weights.drift", None),
        (quadrature, "integrate", "quadrature.integrate", None),
        (divergence, "divergences", "divergence.divergences", None),
        (divergence, "kakutani_criterion", "divergence.kakutani", None),
        (profile, "condition_report", "profile.condition_report", None),
        (walk, "random_walk_return", "walk.return", None),
        (walk, "border_measure_enumerated", "walk.enumerate", None),
    ]
    for module, attr, name, on_exit in spans:
        fn = getattr(module, attr)
        rebind(fn, tracer.span(name, fn, on_exit))
    # gl_panel runs about ten times per divergence: count it, no span
    rebind(quadrature.gl_panel, tracer.counter("quadrature.panels", quadrature.gl_panel))


def per_layer(tracer: Tracer, rounds: int, exact_sizes, setup: dict) -> dict[str, float]:
    """Per-round layer metrics from the traced rounds, plus the set-up
    figures, which are per interpreter."""
    t, c = tracer.total, tracer.counts
    exact = [k for k in t if k.startswith("tally.exact.n")]
    totals = {
        "tally.exact_s": sum(t[k] for k in exact),
        "tally.exact_calls": sum(c[k + ".calls"] for k in exact),
        "tally.brute_s": t["tally.brute"],
        "tally.brute_calls": c["tally.brute.calls"],
        "tally.brute_outcomes": c["tally.brute_outcomes"],
        "tally.mc_s": t["tally.mc"],
        "tally.mc_calls": c["tally.mc.calls"],
        "tally.mc_draws": c["tally.mc_draws"],
        "tally.mc_zero_width": c["tally.mc_zero_width"],
        "streams.uniforms_block_s": t["streams.uniforms_block"],
        "streams.uniforms_s": t["streams.uniforms"],
        "streams.draws": c["streams.draws"],
        "experiment.run_s": t["experiment.run"],
        "experiment.self_s": tracer.self_time["experiment.run"],
        "experiment.profiles": c["experiment.profiles"],
        "profile.generate_s": t["profile.generate"],
        "measure.quantile_s": t["measure.quantile"],
        "measure.quantile_values": c["measure.quantile_values"],
        "weights.sample_weight_s": t["weights.sample_weight"],
        "weights.drift_s": t["weights.drift"],
        "weights.drift_calls": c["weights.drift.calls"],
        "quadrature.integrate_s": t["quadrature.integrate"],
        "quadrature.integrate_calls": c["quadrature.integrate.calls"],
        "quadrature.panels": c["quadrature.panels"],
        "divergence.divergences_s": t["divergence.divergences"],
        "divergence.pairs": c["divergence.divergences.calls"],
        "divergence.kakutani_s": t["divergence.kakutani"],
        "profile.condition_report_s": t["profile.condition_report"],
        "walk.return_s": t["walk.return"],
        "walk.enumerate_s": t["walk.enumerate"],
    }
    out = {k: v / rounds for k, v in totals.items()}
    for n in exact_sizes:
        calls = c[f"tally.exact.n{n}.calls"]
        out[f"tally.exact_ms.n{n}"] = 1e3 * t[f"tally.exact.n{n}"] / calls if calls else 0.0
    stream_s = t["streams.uniforms"] + t["streams.uniforms_block"]
    draws = c["streams.draws"]
    out["streams.ns_per_draw"] = 1e9 * stream_s / draws if draws else 0.0
    return out | setup
