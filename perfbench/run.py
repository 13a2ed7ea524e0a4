#!/usr/bin/env python3
"""Host-time benchmark of the agile-paging simulator.

    python3 perfbench/run.py --workload fig5|churn|mc --seed N \
        --seconds S --trace 0|1

Run from the repository root. Builds the `perfbench` package (a Cargo
package of its own that depends on the simulator's crates by path) in
release mode into $CARGO_TARGET_DIR (default `.bench_build`), runs the
workload in a fresh process with `AGILE_PARANOIA` removed from its
environment, and prints as its last line one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. End-to-end times are
scaled to a nominal host speed, measured by a fixed reference kernel
between passes (see `src/speed.rs`).

`--trace 0` reports the end-to-end metrics; `--trace 1` the per-layer
metrics of a separate traced run, whose spans are written to
`.perfbench/spans-<workload>.csv`. The full record of every run, with its
output checks and provenance (rustc version, cores, source digest, seed,
run length), goes to `.perfbench/<workload>-seed<N>-trace<T>.json`.

An untraced run whose output digest is pinned in `pins.json` for its
workload and seed must reproduce it, or it counts as failed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fig5", "churn", "mc")
BUILD_TIMEOUT_S = 840
# A run measures for --seconds, then finishes its last pass and runs its
# reference checks; this margin covers both.
RUN_MARGIN_S = 120
MAX_SECONDS = 600


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()
    if not 1 <= args.seconds <= MAX_SECONDS:
        p.error(f"--seconds must be in 1..{MAX_SECONDS}")
    return args


def source_digest():
    """SHA-256 over the sources the benchmark builds, standing in for a
    commit id where the checkout is not a git repository."""
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for top in (ROOT / "crates", HERE):
        files += [
            f
            for f in top.rglob("*")
            if f.is_file()
            and f.suffix in (".rs", ".toml", ".lock", ".py", ".json")
            and "target" not in f.relative_to(top).parts
        ]
    for f in sorted(set(files)):
        if f.is_file():
            h.update(str(f.relative_to(ROOT)).encode() + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()


def rustc_version(env):
    try:
        out = subprocess.run(
            ["rustc", "-V"], capture_output=True, text=True, env=env, timeout=30
        )
        return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def main():
    args = parse_args()
    env = dict(os.environ)
    env.pop("AGILE_PARANOIA", None)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = Path(env["CARGO_TARGET_DIR"])
    if not target.is_absolute():
        target = ROOT / target

    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    cmd = [
        str(target / "release" / "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.trace:
        cmd += ["--spans", str(out_dir / f"spans-{args.workload}.csv")]
    timeout = args.seconds + RUN_MARGIN_S
    try:
        run = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} exceeded {timeout} s", file=sys.stderr)
        return 1
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        print(f"perfbench: {args.workload} exited {run.returncode}", file=sys.stderr)
        return 1
    record = json.loads(lines[-1])

    if not args.trace:
        pins = json.loads((HERE / "pins.json").read_text())
        expected = pins.get(args.workload, {}).get(str(args.seed))
        if expected is not None and expected != record["digest"]:
            record["failed"] += 1
            record["problems"].append(
                f"digest {record['digest']} != pinned {expected}"
            )
            record["metrics"]["ok_frac"]["value"] = 1 - record["failed"] / record["attempted"]
    record["correct"] = record["failed"] == 0
    record["provenance"] = {
        "rustc": rustc_version(env),
        "nproc": len(os.sched_getaffinity(0)),
        "source_sha256": source_digest(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    for problem in record["problems"]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
