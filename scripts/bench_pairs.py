#!/usr/bin/env python3
"""Interleaved paired runs of the benchmark on two revisions.

    python3 scripts/bench_pairs.py <rev-a> <rev-b> --workload W [--workload W ...]
                                   [--pairs 10] [--seconds 15] [--seed-base N]

Each revision is checked out as a detached `git worktree` under the
git-ignored `.bench_build/<sha>` and its benchmark is built there once
(release, offline). Pair `i` of a workload runs both builds on seed
`seed-base + i` with the `command` from that revision's `BENCHMARK.json`
plus `--workload W --seed S --seconds N --trace 0`: A first on even pairs,
B first on odd ones, so a host that drifts during the comparison drifts under
both sides alike. A run's result is the last line of its stdout.

For every end-to-end metric in rev-a's `BENCHMARK.json` it prints each
pair's values, both medians, the median ratio B/A, the pairs B won (by the
metric's `better`), A's quartiles, and `resolved` when the medians lie
further apart than A's interquartile range (`unresolved` otherwise: A's own
spread covers the difference). Standard library only; runs offline.

Exit status: 0, or 1 when any run reports `correct: false` or
`failed > 0`, or 2 when a revision does not resolve or build. Worktrees
are kept for the next comparison; `git worktree remove --force
.bench_build/<sha>` deletes one.
"""
import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys


def git(root, *args):
    return subprocess.run(
        ["git", "-C", str(root), *args], check=True, capture_output=True, text=True
    ).stdout.strip()


def checkout(root, rev):
    """Worktree of `rev` with its benchmark built: (path, sha, manifest)."""
    sha = git(root, "rev-parse", "--verify", f"{rev}^{{commit}}")
    path = root / ".bench_build" / sha[:12]
    if not path.exists():
        git(root, "worktree", "add", "--detach", str(path), sha)
    elif git(path, "rev-parse", "HEAD") != sha:
        raise RuntimeError(f"{path} is not at {sha}")
    manifest = json.loads((path / "BENCHMARK.json").read_text())
    # `cargo run <flags> -- one`: the same flags with `build` build exactly
    # what the timed runs will run, and keep the build out of them.
    head = manifest["command"][: manifest["command"].index("--")]
    build = [head[0], "build", *head[2:]]
    print(f"building {rev} ({sha[:12]}) in {path}", file=sys.stderr, flush=True)
    subprocess.run(build, cwd=path, check=True)
    return path, sha, manifest


def run_once(path, manifest, workload, seed, seconds):
    cmd = manifest["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    out = subprocess.run(cmd, cwd=path, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {path}: exit {out.returncode}\n{out.stderr}")
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def report(workload, metrics, results):
    print(f"\n== {workload}: {len(results)} pairs")
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        a = [r[0]["metrics"][name]["value"] for r in results]
        b = [r[1]["metrics"][name]["value"] for r in results]
        print(f"  {name} ({m['unit']}, {m['better']} is better)")
        for i, (x, y) in enumerate(zip(a, b)):
            print(f"    pair {i}: A {x:.6g}  B {y:.6g}  B/A {y / x if x else float('nan'):.3f}")
        med_a, med_b = statistics.median(a), statistics.median(b)
        q1, q3 = quartiles(a)
        wins = sum((y > x) if higher else (y < x) for x, y in zip(a, b))
        verdict = "resolved" if abs(med_b - med_a) > q3 - q1 else "unresolved"
        ratio = med_b / med_a if med_a else float("nan")
        print(
            f"    median A {med_a:.6g}  B {med_b:.6g}  ratio {ratio:.3f}  "
            f"B wins {wins}/{len(a)}  A quartiles {q1:.6g}..{q3:.6g}  {verdict}"
        )


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("rev_a")
    p.add_argument("rev_b")
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--seed-base", type=int, default=1000)
    args = p.parse_args()
    root = pathlib.Path(git(pathlib.Path.cwd(), "rev-parse", "--show-toplevel"))
    try:
        a_path, a_sha, a_manifest = checkout(root, args.rev_a)
        b_path, b_sha, b_manifest = checkout(root, args.rev_b)
    except (subprocess.CalledProcessError, RuntimeError, OSError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    sides = [(a_path, a_manifest), (b_path, b_manifest)]
    print(f"A {args.rev_a} {a_sha[:12]}  B {args.rev_b} {b_sha[:12]}  nproc {os.cpu_count()}")
    try:
        bad = compare(args, sides, a_manifest)
    except RuntimeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if bad:
        print(f"\n{bad} run(s) reported failures or a failed oracle")
        return 1
    return 0


def compare(args, sides, a_manifest):
    """Run every workload's pairs and report them; returns the failed runs."""
    bad = 0
    for workload in args.workload:
        results = []
        for i in range(args.pairs):
            seed = args.seed_base + i
            order = (0, 1) if i % 2 == 0 else (1, 0)
            pair = [None, None]
            for side in order:
                path, manifest = sides[side]
                pair[side] = run_once(path, manifest, workload, seed, args.seconds)
            for side, r in zip("AB", pair):
                if r["correct"] is not True or r["failed"] > 0:
                    bad += 1
                    print(f"  FAILED {workload} seed {seed} {side}: {json.dumps(r)}")
            results.append(pair)
            print(
                f"  {workload} pair {i} seed {seed} order {'AB' if order[0] == 0 else 'BA'} "
                f"loadavg {os.getloadavg()[0]:.2f}",
                file=sys.stderr,
                flush=True,
            )
        report(workload, a_manifest["end_to_end"], results)
    return bad


if __name__ == "__main__":
    sys.exit(main())
