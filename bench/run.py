"""jurylab benchmark: one workload, timed end to end or traced per module.

    python3 bench/run.py --workload large_exact --seed 1 --seconds 15 --trace 0

Runs from the root of a source checkout and imports jurylab from `src/`.
The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.  A traced run also
writes its spans to `bench/out/`.  See bench/README.md.
"""

from __future__ import annotations

import os

# One BLAS and OpenMP thread: tally's Monte Carlo matrix product otherwise
# wakes a second OpenBLAS thread that spins through the work after it,
# doubling CPU time and making wall time depend on the neighbours.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
# Fresh interpreters per run for setup_s; one more runs first, uncounted,
# so the bytecode is written and the files are cached.
SETUP_RUNS = 7
_IMPORT_CODE = "import time, jurylab; print(time.clock_gettime(time.CLOCK_MONOTONIC))"


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("large_exact", "small_committees", "weighted_mc", "diagnostics"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    return args


def _importtime(stderr: str) -> dict[str, float]:
    """Seconds for `jurylab` and for `scipy.stats` from `python -X
    importtime` output.  scipy loads stats lazily, so its package line may
    be missing; the outermost `scipy.stats*` entries are summed instead."""
    entries = []
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[0].startswith("import time:") and parts[1].strip().isdigit():
            name = parts[2].rstrip()
            entries.append((len(name) - len(name.lstrip()), name.strip(), int(parts[1]) / 1e6))
    stats = [e for e in entries if e[1] == "scipy.stats" or e[1].startswith("scipy.stats.")]
    top = min((e[0] for e in stats), default=0)
    return {
        "jurylab": next(e[2] for e in entries if e[1] == "jurylab"),
        "scipy.stats": sum(e[2] for e in stats if e[0] == top),
    }


def setup_metrics(trace: bool) -> dict[str, float]:
    """Median time from starting a fresh interpreter to `import jurylab`
    done, or with --trace 1 the import-time split of jurylab and
    scipy.stats."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, *(["-X", "importtime"] if trace else []), "-c", _IMPORT_CODE]
    starts, imports = [], []
    for i in range(SETUP_RUNS + 1):
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              check=True, timeout=120)
        if i:
            starts.append(float(proc.stdout.split()[-1]) - t0)
            if trace:
                imports.append(_importtime(proc.stderr))
    if not trace:
        return {"setup_s": statistics.median(starts)}
    return {
        "setup.import_s": statistics.median(t["jurylab"] for t in imports),
        "setup.scipy_stats_s": statistics.median(t["scipy.stats"] for t in imports),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "jurylab" / "__init__.py").is_file():
        print(f"bench: no jurylab package under {SRC}", file=sys.stderr)
        return 2
    setup = setup_metrics(bool(args.trace))
    sys.path.insert(0, str(SRC))
    import jurylab

    if Path(jurylab.__file__).resolve().parent != SRC / "jurylab":
        print(f"bench: jurylab imported from {jurylab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    capture = tracing.Capture()
    workload = workloads.WORKLOADS[args.workload](capture)
    result = workloads.Result()
    walls, cpus = [], []
    began = time.perf_counter()
    while not walls or time.perf_counter() - began < args.seconds:
        r = len(walls)
        inputs = workload.inputs(args.seed, r)
        gc.collect()
        if tracer:
            tracer.active = True
        c0, t0 = time.process_time(), time.perf_counter()
        outputs = workload.execute(inputs)
        t1, c1 = time.perf_counter(), time.process_time()
        if tracer:
            tracer.active = False
            tracer.keep_spans = False
        walls.append(t1 - t0)
        cpus.append(c1 - c0)
        workload.check(inputs, outputs, args.seed, r, result)
        del inputs, outputs

    if tracer:
        values = tracing.per_layer(tracer, len(walls), workloads.LargeExact.GRID, setup)
        units = {k: v["unit"] for k, v in _declared("per_layer").items()}
        write_trace(args, tracer, values, walls)
    else:
        values = {
            **setup,
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {k: v["unit"] for k, v in _declared("end_to_end").items()}
    for err in result.errors[:20]:
        print(f"bench: check failed: {err}", file=sys.stderr)
    print(f"bench: {args.workload} seed={args.seed} trace={args.trace} round walls "
          f"{[round(w, 4) for w in walls]} s", file=sys.stderr)
    print(json.dumps({
        "correct": not result.errors,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0


def _declared(kind: str) -> dict[str, dict]:
    with open(ROOT / "BENCHMARK.json") as f:
        return {m["name"]: m for m in json.load(f)[kind]}


def write_trace(args, tracer, values: dict, walls: list[float]) -> None:
    OUT.mkdir(exist_ok=True)
    names = sorted(tracer.total)
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "round_wall_s": walls,
        "per_layer": values,
        "totals": {
            n: {"calls": tracer.counts[n + ".calls"], "total_s": tracer.total[n],
                "self_s": tracer.self_time[n]}
            for n in names
        },
        "counts": {k: v for k, v in tracer.counts.items() if not k.endswith(".calls")},
        "spans_round0": [
            {"name": s[0], "start": s[1], "end": s[2], "parent": s[3]} for s in tracer.spans
        ],
    }
    with open(OUT / f"trace-{args.workload}-seed{args.seed}.json", "w") as f:
        json.dump(doc, f)


if __name__ == "__main__":
    sys.exit(main())
