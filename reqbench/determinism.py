#!/usr/bin/env python3
"""Determinism self-check of the request benchmark.

Runs every workload traced twice with the same seed and requires the
deterministic counts of the per-layer profile to agree exactly, then runs
each workload once more with the held-out seed and requires a clean run.
Run from the repository root:

    python3 reqbench/determinism.py [--seconds N]

Exits 0 when every check passes, 1 otherwise.
"""

import argparse
import json
import subprocess
import sys

COMMAND = [
    "cargo", "run", "--release", "--quiet", "--offline",
    "--manifest-path", "reqbench/Cargo.toml", "--",
]
WORKLOADS = ["deep_report", "recursive_report", "delta_mix"]
# The seed the pair of runs shares, and the seed no tuning ever used.
SEED = 1
HELD_OUT_SEED = 7919
# Per-layer values fixed by the seed alone (not by how many requests fit
# into the timed loop, nor by the clock).
DETERMINISTIC = [
    "prepare.tasks",
    "prepare.syn_agg_tasks",
    "exec.gen_rows",
    "exec.assemble_rows",
    "exec.syn_agg_rows",
    "exec.shipped_bytes",
    "tag.nodes",
    "xml.doc_bytes",
    "delta.snapshot_hits",
    "delta.tasks_rerun",
    "delta.rerun_frac",
    "delta.rows_spliced",
    "delta.nodes_reused",
    "delta.nodes_rebuilt",
    "trace.samples",
]


def run(workload, seed, seconds):
    """One traced run; returns its result line as a dict."""
    args = COMMAND + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "1",
    ]
    done = subprocess.run(args, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=int, default=5,
                        help="timed loop length of each run (default 5)")
    seconds = parser.parse_args().seconds
    ok = True
    for workload in WORKLOADS:
        first = run(workload, SEED, seconds)["metrics"]
        second = run(workload, SEED, seconds)["metrics"]
        for name in DETERMINISTIC:
            a, b = first[name]["value"], second[name]["value"]
            same = a == b
            ok &= same
            print(f"{workload:<17} {name:<24} {a!r:>14} {b!r:>14} "
                  f"{'same' if same else 'DIFFERENT'}")
        held = run(workload, HELD_OUT_SEED, seconds)
        clean = held["correct"] and held["failed"] == 0
        ok &= clean
        print(f"{workload:<17} held-out seed {HELD_OUT_SEED}: "
              f"{held['attempted']} attempted, {held['failed']} failed, "
              f"{'clean' if clean else 'NOT CLEAN'}")
    print("determinism check " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
