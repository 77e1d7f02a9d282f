"""Record the benchmark's numbers for a checkout, optionally against its parent.

    python3 tools/bench_record.py --out BENCH_<n>.json --parent ../jurylab-parent

Runs `bench/run.py` untraced on each workload of `BENCHMARK.json`, for
its `run_seconds`, once per seed over ten seeds, and takes the median and
quartiles of every end-to-end metric.  With `--parent`, the same runs are
made in a second checkout too, as pairs on the same seed that alternate
which side goes first, so both sides see the same hour of the host, and
the file counts the pairs the change won.  One traced run per side of
every workload gives that run's whole `per_layer` dict
(`profile.generate_s`, `tally.mc_s`, `divergence.divergences_s`,
`experiment.self_s` and the rest), with the mean milliseconds per
`majority_prob_exact` call at every traced size (`tally.exact_ms.n*`).
The file also names the host and its CPU (model name, family, model,
stepping and the avx512f flag), whether Python writes bytecode there
(`dont_write_bytecode`: if not, every `setup_s` run compiles jurylab's
sources afresh), Python, numpy, scipy and each side's git commit and
source digest, and one Tier-1 run per side (`tier1`): its wall seconds
and its passed and failed counts.  Nothing under `bench/` is changed;
traced runs write their spans to each checkout's `bench/out/`, as they
always do.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import subprocess
import sys
import time
from importlib.metadata import version
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEEDS = tuple(range(9001, 9011))
# the Tier-1 command; no cache is written into either checkout
TIER1 = (sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors")


def bench(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One `bench/run.py` process; its last stdout line as a dict."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def traced_layers(checkout: Path, workload: str, seed: int) -> dict[str, float]:
    """A traced run's `per_layer` dict, with the mean ms per exact tally
    call at each size the run saw (its `per_layer` has only the sizes of
    `large_exact`)."""
    with open(checkout / "bench" / "out" / f"trace-{workload}-seed{seed}.json") as f:
        trace = json.load(f)
    rows = {}
    for name, t in trace["totals"].items():
        if name.startswith("tally.exact.n") and t["calls"]:
            rows[f"tally.exact_ms.{name.rsplit('.', 1)[1]}"] = 1e3 * t["total_s"] / t["calls"]
    exact = dict(sorted(rows.items(), key=lambda kv: int(kv[0].rsplit(".n", 1)[1])))
    return trace["per_layer"] | exact


def tier1(checkout: Path) -> dict:
    """One Tier-1 run in `checkout`, with its `src/` first on the path:
    wall seconds and the counts of pytest's summary line, errors counted
    as failed.  A run with failures is recorded, not raised: the
    criterion-11 check fails by design."""
    path = os.pathsep.join(filter(None, [str(checkout / "src"), os.environ.get("PYTHONPATH")]))
    began = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=checkout, capture_output=True, text=True,
                          env=os.environ | {"PYTHONPATH": path})
    wall = time.perf_counter() - began
    summary = (proc.stdout.strip().splitlines() or [""])[-1]
    counts = {word: int(num) for num, word in re.findall(r"(\d+) (\w+)", summary)}
    failed = counts.get("failed", 0) + counts.get("error", 0) + counts.get("errors", 0)
    return {"wall_s": wall, "passed": counts.get("passed", 0), "failed": failed}


def provenance(checkout: Path) -> dict:
    """Git commit, whether src/ differs from it, and a digest of src/."""
    def git(*args):
        proc = subprocess.run(["git", "-C", str(checkout), *args], capture_output=True,
                              text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    digest = hashlib.sha256()
    for path in sorted((checkout / "src").rglob("*.py")):
        digest.update(path.relative_to(checkout).as_posix().encode())
        digest.update(path.read_bytes())
    # only src/, the tree the digest covers: an edited document moves no number
    status = git("status", "--porcelain", "--untracked-files=no", "--", "src")
    return {
        "git_sha": git("rev-parse", "HEAD"),
        "modified_since_commit": None if status is None else bool(status),
        "src_sha256": digest.hexdigest(),
    }


def cpu_info() -> dict:
    """The first CPU's `model name`, `cpu family`, `model` and `stepping`
    lines of /proc/cpuinfo, and whether its flags include avx512f, where
    the file exists: the cost of subnormal arithmetic, for one, depends
    on the microarchitecture, which a bare model name may not say."""
    keys = {"model name": "cpu_model", "cpu family": "cpu_family", "model": "cpu_model_number",
            "stepping": "cpu_stepping"}
    info = dict.fromkeys([*keys.values(), "avx512f"])
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, value = (part.strip() for part in line.partition(":"))
                if not key:  # a blank line ends the first CPU's block
                    break
                if key in keys:
                    info[keys[key]] = value if key == "model name" else int(value)
                elif key == "flags":
                    info["avx512f"] = "avx512f" in value.split()
    except (OSError, ValueError):
        pass
    return info


def summarise(runs: list[dict]) -> dict:
    """Per metric: median and quartiles over the seeds, and every run's value."""
    metrics = {}
    for m, first in runs[0]["metrics"].items():
        values = [r["metrics"][m]["value"] for r in runs]
        q1, median, q3 = (float(q) for q in np.percentile(values, [25, 50, 75]))
        metrics[m] = {"unit": first["unit"], "median": median, "quartiles": [q1, q3],
                      "runs": values}
    return {
        "attempted": [r["attempted"] for r in runs],
        "failed": [r["failed"] for r in runs],
        "correct": all(r["correct"] for r in runs),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--parent", type=Path, help="a checkout of the parent commit")
    args = ap.parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as f:
        declared = json.load(f)
    workloads = [w["name"] for w in declared["workloads"]]
    seconds = declared["run_seconds"]

    sides = {"change": ROOT}
    if args.parent:
        sides["parent"] = args.parent.resolve()
    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    runs = {side: {w: [] for w in workloads} for side in sides}
    for w in workloads:
        for i, seed in enumerate(SEEDS):
            order = list(sides) if i % 2 else list(reversed(sides))
            for side in order:
                runs[side][w].append(bench(sides[side], w, seed, seconds, 0))
            print(f"bench_record: {w} seed {seed} done", file=sys.stderr)
    traced = {side: {} for side in sides}
    for w in workloads:
        for side in sides:
            bench(sides[side], w, SEEDS[0], seconds, 1)
            traced[side][w] = traced_layers(sides[side], w, SEEDS[0])
    tests = {}
    for side in sides:
        tests[side] = tier1(sides[side])
        print(f"bench_record: Tier-1 on {side}: {tests[side]}", file=sys.stderr)

    doc = {
        "started_utc": started,
        "finished_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "host": {
            "machine": platform.machine(),
            "processor": platform.processor() or None,
            **cpu_info(),
            "cpus": os.cpu_count(),
            "system": platform.platform(),
            "dont_write_bytecode": bool(sys.flags.dont_write_bytecode),
        },
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "seeds": list(SEEDS),
        "seconds": seconds,
        "traced_seed": SEEDS[0],
        "sides": {},
    }
    for side, checkout in sides.items():
        doc["sides"][side] = {
            **provenance(checkout),
            "end_to_end": {w: summarise(runs[side][w]) for w in workloads},
            "traced": traced[side],
            "tier1": tests[side],
        }
    if args.parent:
        sign = {m["name"]: 1 if m["better"] == "lower" else -1 for m in declared["end_to_end"]}
        # pairs in which the change's value is strictly better; ties count for neither
        doc["change_wins"] = {
            w: {
                m: sum(s * c["metrics"][m]["value"] < s * p["metrics"][m]["value"]
                       for c, p in zip(runs["change"][w], runs["parent"][w]))
                for m, s in sign.items()
            }
            for w in workloads
        }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
