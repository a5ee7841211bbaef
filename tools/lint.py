#!/usr/bin/env python3
"""lint — single entry point for both SmartDIMM analysis tiers.

Runs, in order:

  1. sdcheck   the project static analyzer against the committed
               baseline: per-file text rules (determinism, iostream,
               guards, recoverable-assert, queue/wakeup bypass,
               topology construction), span dataflow and the cross-TU
               audits (fault-site coverage, stat registry, MMIO map,
               address arithmetic)
  2. clang-tidy (via tools/run_tidy.sh) over compile_commands.json,
               enforcing — skipped when clang-tidy is not installed
               or with --fast

and exits non-zero when any tier fails, so one command covers local
pre-commit, the ctest registrations and the CI lint jobs alike.

Usage:
  tools/lint.py [--root DIR] [--build DIR] [--fast]

--fast is the pre-commit profile: sdcheck in --regex-only mode (no
libclang parse, no compile_commands.json needed) and no clang-tidy.
Full runs want a configured build directory.
"""

from __future__ import annotations

import argparse
import pathlib
import subprocess
import sys


def run_step(name: str, cmd: list) -> bool:
    print(f"=== lint: {name}: {' '.join(str(c) for c in cmd)}")
    proc = subprocess.run(cmd)
    ok = proc.returncode == 0
    print(f"=== lint: {name}: {'ok' if ok else 'FAILED'}")
    return ok


def main() -> int:
    repo = pathlib.Path(__file__).resolve().parent.parent
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", type=pathlib.Path, default=repo,
                        help="repository root")
    parser.add_argument("--build", type=pathlib.Path, default=None,
                        help="build dir with compile_commands.json "
                             "(default: ROOT/build)")
    parser.add_argument("--fast", action="store_true",
                        help="pre-commit profile: regex-only sdcheck, "
                             "skip clang-tidy")
    args = parser.parse_args()

    root = args.root.resolve()
    build = (args.build or root / "build").resolve()
    tools = root / "tools"
    py = sys.executable or "python3"

    failures = []

    sdcheck_cmd = [py, tools / "sdcheck.py", "--root", root,
                   "--build", build]
    if args.fast:
        sdcheck_cmd.append("--regex-only")
    if not run_step("sdcheck", sdcheck_cmd):
        failures.append("sdcheck")

    if args.fast:
        print("=== lint: clang-tidy: skipped (--fast)")
    elif not run_step("clang-tidy",
                      ["bash", tools / "run_tidy.sh", build]):
        failures.append("clang-tidy")

    if failures:
        print(f"lint: FAILED tiers: {', '.join(failures)}",
              file=sys.stderr)
        return 1
    print("lint: all tiers clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
