"""Run the benchmark on two checkouts in alternating pairs and summarize.

    python3 tools/bench_pairs.py BASE HEAD --tag NAME [--pairs 10] [--out DIR]

BASE and HEAD are the roots of two checkouts, each with its own
``bench/run.py`` and ``src/``. For every pair i (seed 8001 + i) and every
workload of HEAD's ``BENCHMARK.json``, ``bench/run.py --trace 0`` runs once
on each side for that file's ``run_seconds``, one process at a time; even
pairs run BASE first, odd pairs HEAD first, so a drift in the host's speed
does not favour one side. The end-to-end metrics and their directions come
from the same file.

Writes ``BENCH_<tag>.json`` (into ``--out``, by default the root of the
checkout holding this script) with the environment, each side's git commit,
``src/`` tree and whether its working tree differed from that commit, every
run's result and, per workload and metric, each side's median and
quartiles, the relative change of the medians and the number of pairs HEAD
won.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIRST_SEED = 8001


def run_once(checkout, workload, seed, seconds):
    """One benchmark process; returns its result object, or an error."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if proc.returncode != 0 or result is None:
        return dict(error=f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}",
                    wall_s=round(wall, 1))
    return dict(correct=result["correct"], attempted=result["attempted"],
                failed=result["failed"], wall_s=round(wall, 1),
                metrics={k: v["value"] for k, v in result["metrics"].items()})


def spread(values):
    """Median and quartiles (inclusive method) of the values present."""
    values = [v for v in values if v is not None]
    if not values:
        return None
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return dict(median=median, q1=q1, q3=q3, n=len(values))


def summarize(runs, metrics):
    """Per metric: each side's spread, the change of the medians and the wins."""
    out = {}
    for name, better in metrics.items():
        base = [r["base"].get("metrics", {}).get(name) for r in runs]
        head = [r["head"].get("metrics", {}).get(name) for r in runs]
        pairs = [(b, h) for b, h in zip(base, head) if b is not None and h is not None]
        wins = sum(h < b if better == "lower" else h > b for b, h in pairs)
        sb, sh = spread(base), spread(head)
        change = None
        if sb and sh and sb["median"]:
            change = round(100.0 * (sh["median"] - sb["median"]) / sb["median"], 2)
        out[name] = dict(better=better, base=sb, head=sh, change_pct=change,
                         head_wins=wins, pairs=len(pairs))
    return out


def side_status(runs, side):
    done = [r[side] for r in runs if "error" not in r[side]]
    return dict(runs=len(runs), errors=len(runs) - len(done),
                all_correct=all(r["correct"] for r in done) and len(done) == len(runs),
                attempted=sum(r["attempted"] for r in done),
                failed=sum(r["failed"] for r in done))


def git_state(checkout):
    """Commit, tree of src/ and whether the working tree differs from them."""
    if not (checkout / ".git").exists():
        return dict(commit=None, src_tree=None, dirty=None)

    def git(*args):
        proc = subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    return dict(commit=git("rev-parse", "HEAD"), src_tree=git("rev-parse", "HEAD:src"),
                dirty=bool(git("status", "--porcelain")))


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(base, head):
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return dict(python=sys.version.split()[0], numpy=np.__version__,
                blas=f"{blas.get('name')} {blas.get('version')}",
                nproc=len(os.sched_getaffinity(0)), cpu=cpu_model(),
                platform=platform.platform(), base=git_state(base), head=git_state(head))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="root of the reference checkout")
    parser.add_argument("head", type=Path, help="root of the checkout under test")
    parser.add_argument("--tag", required=True, help="names the output BENCH_<tag>.json")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", type=Path, default=ROOT)
    args = parser.parse_args(argv)
    for side in (args.base, args.head):
        if not (side / "bench" / "run.py").is_file():
            parser.error(f"{side}: no bench/run.py")
    spec = json.loads((args.head / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
    env = environment(args.base, args.head)

    runs = {w: [] for w in workloads}
    for i in range(args.pairs):
        seed = FIRST_SEED + i
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        for w in workloads:
            pair = dict(seed=seed, first=order[0])
            for side in order:
                pair[side] = run_once(getattr(args, side), w, seed, seconds)
                got = pair[side].get("metrics") or pair[side].get("error")
                print(f"pair {i + 1}/{args.pairs} {w} {side}: {got}", file=sys.stderr,
                      flush=True)
            runs[w].append(pair)

    report = dict(
        environment=env, seconds=seconds, pairs=args.pairs, first_seed=FIRST_SEED,
        workloads={w: dict(base=side_status(r, "base"), head=side_status(r, "head"),
                           metrics=summarize(r, metrics), runs=r)
                   for w, r in runs.items()})
    path = args.out / f"BENCH_{args.tag}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    for w, entry in report["workloads"].items():
        for name, m in entry["metrics"].items():
            if m["base"] and m["head"]:
                print(f"{w} {name}: {m['base']['median']:.4g} -> {m['head']['median']:.4g} "
                      f"({m['change_pct']:+.1f}%), head better in {m['head_wins']}/{m['pairs']}")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
