#!/usr/bin/env python3
"""Build and run the cost-ladder benchmark.

    python3 perfbench/run.py --workload stream --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Run from the repository root. The benchmark is built from source with
dune, then each workload runs in its own process, so peak RSS belongs to
that workload alone. With one workload the ladder's output is passed
through unchanged: its last line is the result object. With `all`, every
workload runs in turn, each end-to-end (or per-layer) metric is printed
by name with its unit, and the exit code is non-zero if any workload's
simulated outputs differ from the committed reference.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ["stream", "session", "server", "isa"]
EXE = os.path.join("_build", "default", "perfbench", "ladder.exe")


def revision():
    """The git commit when there is one here, else a digest of the sources."""
    if os.path.isdir(".git"):
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    h = hashlib.sha1()
    for top in ("lib", "perfbench"):
        for root, dirs, files in sorted(os.walk(top)):
            dirs.sort()
            for name in sorted(files):
                if name.endswith((".ml", ".mli", "dune")):
                    path = os.path.join(root, name)
                    h.update(path.encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return "src-sha1:" + h.hexdigest()


def build():
    # keep the compiler's temporary files and dune's cache out of $HOME
    # and /tmp: a run reads and writes only inside the checkout
    tmp = os.path.abspath(os.path.join("perfbench", "out", "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp)
    out = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/ladder.exe"],
        env=env, stdout=sys.stderr, stderr=sys.stderr)
    return out.returncode == 0 and os.path.exists(EXE)


def ladder_args(args, workload, rev):
    cmd = [EXE, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--revision", rev]
    return cmd + (["--smoke"] if args.smoke else [])


def run_all(args, rev):
    ok = True
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        out = subprocess.run(ladder_args(args, w, rev), capture_output=True, text=True)
        sys.stderr.write(out.stderr)
        lines = out.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"{w}: no result (exit {out.returncode})")
            ok = False
            continue
        ok = ok and out.returncode == 0 and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            summary["metrics"][f"{w}.{name}"] = m
    print(f"{'workload.metric':<44} {'value':>16}  unit")
    for name, m in summary["metrics"].items():
        print(f"{name:<44} {m['value']:>16.6g}  {m['unit']}")
    summary["correct"] = ok
    print(json.dumps(summary))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true",
                   help="short run; its output is marked not comparable")
    args = p.parse_args()
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    rev = revision()
    if args.workload == "all":
        return run_all(args, rev)
    return subprocess.run(ladder_args(args, args.workload, rev)).returncode


if __name__ == "__main__":
    sys.exit(main())
