#!/usr/bin/env python3
"""Build and run the open-loop serving benchmark (see README.md).

Usage, from the repository root:

    python3 servebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 servebench/run.py --selftest

The benchmark is compiled from source on first use into
$CARGO_TARGET_DIR/servebench (default .bench_build/servebench under the
repository root). Build output goes to a log file there; the benchmark's
own output is passed through, and its last line is the JSON result.
A traced run (--trace 1) also writes its spans as Chrome trace-event
JSON next to the build.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("tls4k_4x2", "deflate_mixed_1x1", "tls_tiered_cxl")
_child = None
_stop_signal = 0


def _stop(signum, _frame):
    """Stop the running child (and its children); run() then exits."""
    global _stop_signal
    _stop_signal = signum
    if _child is None:
        sys.exit(128 + signum)
    try:
        os.killpg(_child.pid, signal.SIGTERM)
    except ProcessLookupError:
        pass


def run(cmd, **kwargs) -> int:
    """Run one child process to completion; signals stop it too."""
    global _child
    _child = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        rc = _child.wait()
    finally:
        _child = None
    if _stop_signal:
        sys.exit(128 + _stop_signal)
    return rc


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "servebench"


def build(out: Path) -> Path:
    """Configure (once) and build the benchmark; return the binary."""
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    with open(log, "w") as fh:
        for cmd in steps:
            if run(cmd, stdout=fh, stderr=subprocess.STDOUT):
                fh.flush()
                sys.stderr.write(log.read_text()[-4000:])
                sys.exit(f"servebench: build failed (log: {log})")
    return out / "servebench"


def source_id() -> str:
    """Git commit when available, else a digest of the built sources."""
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if res.returncode == 0:
            return res.stdout.strip()
    digest = hashlib.sha256()
    for tree in (ROOT / "src", HERE):
        for path in sorted(p for p in tree.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required unless --selftest is given")
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, _stop)
    out = build_dir()
    binary = build(out)
    if args.selftest:
        return run([str(binary), "--selftest"])

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", source_id()]
    if args.trace:
        cmd += ["--chrome-trace",
                str(out / f"trace_{args.workload}_seed{args.seed}.json")]
    return run(cmd)


if __name__ == "__main__":
    sys.exit(main())
