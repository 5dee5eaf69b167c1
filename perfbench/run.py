#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload serve_netsim --seed 1 --seconds 20 --trace 0

With --trace 0 this runs the untraced `perfbench` binary, whose last
stdout line is the JSON result with the end-to-end metrics. With
--trace 1 it first runs the untraced binary (its output goes to stderr)
to learn the untraced rounds_per_s, then the traced `perfbench_traced`
binary, whose result line carries the per-layer metrics and the tracing
overhead; its spans land in <target>/perfbench-traces/. Any further
flags (--cols, --rows, --rate, --rounds, --per-round)
pass through to the binary.

The cargo target directory is $CARGO_TARGET_DIR if set, else
perfbench/target. Exits non-zero without a result line if the build
fails, e.g. when the repository's crates are not beside this directory.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
DEFAULT_SEED = 1


def target_dir() -> Path:
    env = os.environ.get("CARGO_TARGET_DIR")
    return Path(env).resolve() if env else BENCH_DIR / "target"


def run(cmd: list, stdout=None) -> tuple:
    """Runs `cmd` to completion; if this script is interrupted or
    terminated first, kills the child and waits for it before leaving.
    Returns (exit code, captured stdout or None)."""
    with subprocess.Popen(cmd, stdout=stdout, text=True) as proc:
        try:
            out, _ = proc.communicate()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    return (proc.returncode if proc.returncode >= 0 else 1), out


def build() -> bool:
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet", "--bins",
        "--manifest-path", str(BENCH_DIR / "Cargo.toml"),
    ]
    try:
        return run(cmd, stdout=sys.stderr)[0] == 0
    except OSError as err:
        print(f"perfbench: cannot run cargo: {err}", file=sys.stderr)
        return False


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args, passthrough = parser.parse_known_args()
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    release = target_dir() / "release"
    common = [
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        *passthrough,
    ]
    untraced = [str(release / "perfbench"), *common]
    if args.trace == "0":
        return run(untraced)[0]
    code, out = run(untraced, stdout=subprocess.PIPE)
    sys.stderr.write(out)
    if code != 0:
        return code
    result = json.loads(out.strip().splitlines()[-1])
    rounds_per_s = result["metrics"]["rounds_per_s"]["value"]
    spans = target_dir() / "perfbench-traces" / f"{args.workload}-seed{args.seed}.jsonl"
    traced = [
        str(release / "perfbench_traced"), *common,
        "--untraced-rounds-per-s", repr(rounds_per_s),
        "--trace-out", str(spans),
    ]
    return run(traced)[0]


if __name__ == "__main__":
    # SIGTERM unwinds like Ctrl-C, so a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
