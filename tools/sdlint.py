#!/usr/bin/env python3
"""sdlint — project-specific invariant linter for the SmartDIMM repo.

Checks invariants that generic tools (clang-tidy, compiler warnings)
cannot express because they encode *project* contracts:

  determinism   no rand()/srand()/std::random_device in src/ — all
                randomness must flow through sd::Rng so runs replay
                bit-identically from a seed.
  iostream      no `#include <iostream>` in src/ headers — pulling the
                static ios_base initialiser into every TU bloats the
                data plane; sinks take std::ostream& instead.
  guards        every src/ header has an #ifndef SD_* include guard.
  queue-bypass  CompCpyEngine::startOp() is the engine's private
                execution hook for WorkQueue; everything else must go
                through a queue (or the sync facade run()/start()) so
                there is exactly one execution path.
  wakeup-bypass scheduler wakeups must flow through requestPass(),
                which coalesces redundant passes behind the pending-
                pass flag; scheduling a schedulePass() lambda directly
                silently defeats the coalescing (and its accounting).
  topology-construction
                MemorySystem/BufferDevice are constructed only inside
                the topo::Topology factory: it owns the address
                windows, rebased MMIO bases, fault scopes and stat
                names. This rule also covers bench/ and examples/
                (production-shaped rigs); tests/ may wire bespoke rigs.

Span balance and the MMIO register map moved to tools/sdcheck.py,
which checks them with control-flow-aware dataflow and a cross-TU
window-helper audit respectively — sdlint keeps only the cheap
per-file text rules so the two tools never double-report.

Usage:
  tools/sdlint.py [--root DIR]     lint the tree (exit 1 on findings)
  tools/sdlint.py --self-test      run the linter's own test corpus
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

SRC_EXTS = {".h", ".cc"}


def is_digit_separator(text: str, i: int) -> bool:
    """Whether the quote at text[i] separates digits (C++14 `100'000`,
    `0xFF'FF`): it sits inside a number token, with an alphanumeric on
    each side, rather than opening a char literal (`u8'0'` is one)."""
    start = i
    while start > 0 and (text[start - 1].isalnum()
                         or text[start - 1] in "_'."):
        start -= 1
    return (start < i and text[start].isdigit() and i + 1 < len(text)
            and text[i + 1].isalnum())


def strip_comments_and_strings(text: str) -> str:
    """Blank out comments and string/char literals, preserving offsets
    and newlines so line numbers and brace positions stay valid."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line | block | str | chr
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "str"
                out.append(" ")
                i += 1
                continue
            if c == "'" and not is_digit_separator(text, i):
                state = "chr"
                out.append(" ")
                i += 1
                continue
            out.append(c)
        elif state == "line":
            if c == "\n":
                state = "code"
                out.append("\n")
            elif c == "\\" and nxt == "\n":
                out.append(" \n")
                i += 2
                continue
            else:
                out.append(" ")
        elif state == "block":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
        else:  # str / chr
            quote = '"' if state == "str" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
            out.append(" ")
        i += 1
    return "".join(out)


def line_of(text: str, pos: int) -> int:
    return text.count("\n", 0, pos) + 1


# --------------------------------------------------------------------------
# Rule: determinism
# --------------------------------------------------------------------------

RANDOM_RE = re.compile(r"\b(?:srand|rand)\s*\(|std\s*::\s*random_device")


def check_determinism(path: pathlib.Path, text: str, clean: str) -> list:
    findings = []
    for m in RANDOM_RE.finditer(clean):
        findings.append(
            (path, line_of(clean, m.start()), "determinism",
             f"'{m.group(0).strip()}' breaks replayability; "
             "use sd::Rng seeded from the config"))
    return findings


# --------------------------------------------------------------------------
# Rule: iostream
# --------------------------------------------------------------------------

IOSTREAM_RE = re.compile(r"^\s*#\s*include\s*<iostream>", re.MULTILINE)


def check_iostream(path: pathlib.Path, text: str, clean: str) -> list:
    if path.suffix != ".h":
        return []
    findings = []
    for m in IOSTREAM_RE.finditer(clean):
        findings.append(
            (path, line_of(clean, m.start()), "iostream",
             "<iostream> in a header drags the ios_base initialiser "
             "into every TU; take std::ostream& instead"))
    return findings


# --------------------------------------------------------------------------
# Rule: guards
# --------------------------------------------------------------------------

GUARD_RE = re.compile(r"^\s*#\s*ifndef\s+(SD_\w+)\s*$\s*^\s*#\s*define\s+\1\s*$",
                      re.MULTILINE)


def check_guards(path: pathlib.Path, text: str, clean: str) -> list:
    if path.suffix != ".h":
        return []
    if GUARD_RE.search(text):
        return []
    return [(path, 1, "guards",
             "header lacks an #ifndef SD_* include guard")]


# --------------------------------------------------------------------------
# Rule: recoverable-assert
# --------------------------------------------------------------------------

ASSERT_RE = re.compile(r"\bSD_ASSERT\s*\(")

# Modules threaded with fault-injection sites (src/fault): code here
# runs under the chaos soak, so a *new* SD_ASSERT is usually a panic on
# a recoverable path — prefer a degraded-mode completion (kDegraded,
# rejected registration, bounded retry) and a stat. The per-file counts
# below baseline the asserts that guard genuine programming errors;
# raise a file's count only when the new assert is one of those.
RECOVERABLE_ASSERT_BASELINE = {
    "mem/address_map.cc": 3,  # construction-time geometry invariants
    "mem/cxl_link.cc": 2,  # construction-time link-config invariants
    "mem/bank_state.h": 1,
    "mem/dimm_mux.h": 2,  # chip-select decode of a malformed coord
    "mem/memory_controller.cc": 2,
    "smartdimm/buffer_device.cc": 3,
    "smartdimm/config_memory.cc": 4,
    "smartdimm/cuckoo_table.cc": 1,
    "smartdimm/deflate_dsa.cc": 4,
    "smartdimm/scratchpad.cc": 9,
    "smartdimm/tls_dsa.cc": 4,
    "smartdimm/bank_table.h": 1,
    "compcpy/compcpy.cc": 3,
    "compcpy/offload_engine.cc": 2,
    "compcpy/queue.cc": 5,
    "compcpy/driver.h": 2,
    "net/tcp_stream.cc": 1,
}
INJECTED_MODULES = ("mem", "smartdimm", "compcpy", "net")


def check_recoverable_assert(path: pathlib.Path, text: str,
                             clean: str) -> list:
    parts = path.parts
    if len(parts) < 2 or parts[-2] not in INJECTED_MODULES:
        return []
    rel = f"{parts[-2]}/{parts[-1]}"
    count = len(ASSERT_RE.findall(clean))
    allowed = RECOVERABLE_ASSERT_BASELINE.get(rel, 0)
    if count <= allowed:
        return []
    last = 0
    for m in ASSERT_RE.finditer(clean):
        last = line_of(clean, m.start())
    return [(path, last, "recoverable-assert",
             f"{rel} has {count} SD_ASSERT(s), baseline {allowed}: this "
             "module runs under fault injection — handle the failure as "
             "a degraded mode (retry/reject/kDegraded + stat) or, for a "
             "genuine invariant, raise the baseline in sdlint.py")]


# --------------------------------------------------------------------------
# Rule: queue-bypass
# --------------------------------------------------------------------------

QUEUE_BYPASS_RE = re.compile(r"\bstartOp\s*\(")

# startOp() is CompCpyEngine's private execution hook; only the queue
# (which owns dispatch ordering) and the engine itself (declaration +
# sync facade) may name it. Any other call site is skipping descriptor
# accounting, completion records and the per-queue fallback decision.
QUEUE_BYPASS_ALLOWED = {
    "compcpy/compcpy.h",
    "compcpy/compcpy.cc",
    "compcpy/queue.cc",
}


def check_queue_bypass(path: pathlib.Path, text: str, clean: str) -> list:
    parts = path.parts
    rel = "/".join(parts[-2:]) if len(parts) >= 2 else parts[-1]
    if rel in QUEUE_BYPASS_ALLOWED:
        return []
    findings = []
    for m in QUEUE_BYPASS_RE.finditer(clean):
        findings.append(
            (path, line_of(clean, m.start()), "queue-bypass",
             "startOp() bypasses the work-queue front end; submit a "
             "Descriptor through a WorkQueue (or the sync facade "
             "run()/start()) so the call is accounted and reaped"))
    return findings


# --------------------------------------------------------------------------
# Rule: wakeup-bypass
# --------------------------------------------------------------------------

WAKEUP_BYPASS_RE = re.compile(r"\bschedule(?:In)?\s*\([^;]*schedulePass",
                              re.DOTALL)

# requestPass() is the only place allowed to put a schedulePass() event
# on the queue: it owns the pending-pass flag, the pass epoch and the
# wakeups_requested/coalesced accounting. The baseline covers its two
# legitimate schedule sites (uncoalesced reference mode + the epoch-
# guarded coalesced path).
WAKEUP_BYPASS_BASELINE = {
    "mem/memory_controller.cc": 2,
}


def check_wakeup_bypass(path: pathlib.Path, text: str, clean: str) -> list:
    parts = path.parts
    rel = "/".join(parts[-2:]) if len(parts) >= 2 else parts[-1]
    matches = list(WAKEUP_BYPASS_RE.finditer(clean))
    allowed = WAKEUP_BYPASS_BASELINE.get(rel, 0)
    if len(matches) <= allowed:
        return []
    findings = []
    for m in matches[allowed:]:
        findings.append(
            (path, line_of(clean, m.start()), "wakeup-bypass",
             "scheduling schedulePass() directly bypasses requestPass() "
             "wakeup coalescing; call requestPass(when) instead (or, for "
             "a new legitimate site inside it, raise the baseline in "
             "sdlint.py)"))
    return findings


# --------------------------------------------------------------------------
# Rule: topology-construction
# --------------------------------------------------------------------------

TOPOLOGY_CTOR_RE = re.compile(
    r"\bnew\s+(?:[\w:]+\s*::\s*)?(?:MemorySystem|BufferDevice)\b"
    r"|\bmake_unique\s*<\s*[\w:]*(?:MemorySystem|BufferDevice)\s*>"
    r"|\b(?:MemorySystem|BufferDevice)\s+\w+\s*[({]")

# The factory is the only place allowed to construct the platform
# devices: it computes the per-slot capacity windows, rebases each
# device's MMIO base into its slot, threads fault scopes and keeps the
# per-device stat names consistent. A hand-wired rig silently gets one
# global MMIO window and unscoped faults. (References, pointers and
# template parameters don't match — only construction does.)
TOPOLOGY_CTOR_ALLOWED = {
    "topo/topology.h",
    "topo/topology.cc",
}


def check_topology_construction(path: pathlib.Path, text: str,
                                clean: str) -> list:
    parts = path.parts
    rel = "/".join(parts[-2:]) if len(parts) >= 2 else parts[-1]
    if rel in TOPOLOGY_CTOR_ALLOWED:
        return []
    findings = []
    for m in TOPOLOGY_CTOR_RE.finditer(clean):
        findings.append(
            (path, line_of(clean, m.start()), "topology-construction",
             "construct MemorySystem/BufferDevice through the "
             "topo::Topology factory (topo/topology.h): it owns the "
             "address windows, rebased MMIO bases, fault scopes and "
             "stat names; only tests may wire bespoke rigs"))
    return findings


CHECKS = [check_determinism, check_iostream, check_guards,
          check_recoverable_assert, check_queue_bypass,
          check_wakeup_bypass, check_topology_construction]


def lint_text(path: pathlib.Path, text: str) -> list:
    clean = strip_comments_and_strings(text)
    findings = []
    for check in CHECKS:
        findings.extend(check(path, text, clean))
    return findings


def lint_tree(root: pathlib.Path) -> int:
    findings = []
    src = root / "src"
    for path in sorted(src.rglob("*")):
        if path.suffix in SRC_EXTS and path.is_file():
            findings.extend(lint_text(path, path.read_text()))
    # bench/ and examples/ build production-shaped rigs, so the
    # topology-construction rule (and only it) extends there; tests/
    # stay free to wire bespoke rigs.
    for sub in ("bench", "examples"):
        for path in sorted((root / sub).rglob("*")):
            if path.suffix in SRC_EXTS | {".cpp"} and path.is_file():
                text = path.read_text()
                findings.extend(check_topology_construction(
                    path, text, strip_comments_and_strings(text)))
    for path, lineno, rule, msg in findings:
        print(f"{path}:{lineno}: [{rule}] {msg}")
    if findings:
        print(f"sdlint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


# --------------------------------------------------------------------------
# Self test
# --------------------------------------------------------------------------

SELF_TESTS = [
    # (name, source, suffix, expected rule names)
    ("rand-call", "int f() { return rand(); }", ".cc", ["determinism"]),
    ("srand-call", "void f() { srand(42); }", ".cc", ["determinism"]),
    ("random-device", "#include <random>\nstd::random_device rd;", ".cc",
     ["determinism"]),
    ("rand-in-comment", "// rand() is banned\nint f() { return 0; }", ".cc",
     []),
    ("rand-in-string",
     '#ifndef SD_X_H\n#define SD_X_H\nconst char *k = "rand()";\n#endif',
     ".h", []),
    ("rand-substring", "int grand() { return strand(); }", ".cc", []),
    # span balance moved to sdcheck (control-flow-aware); sdlint must
    # stay silent on span macros so the tools never double-report.
    ("span-now-sdcheck",
     "void f() { auto s = SD_SPAN_BEGIN(\"x\",0,0,0,0); }", ".cc", []),
    ("iostream-header",
     "#ifndef SD_A_H\n#define SD_A_H\n#include <iostream>\n#endif", ".h",
     ["iostream"]),
    ("iostream-impl", "#include <iostream>\nint x;", ".cc", []),
    # MMIO register-map checks moved to sdcheck (adds overlap, window
    # fit and the window-helper access audit); a misaligned enum must
    # no longer be sdlint's problem.
    ("mmio-now-sdcheck",
     "#ifndef SD_C_H\n#define SD_C_H\n"
     "enum class MmioReg : unsigned { kA = 0x00, kB = 0x44, kC = 0x3 };\n"
     "#endif", ".h", []),
    ("guard-missing", "int x;", ".h", ["guards"]),
    # recoverable-assert cases: a "/" in the name makes it the lint
    # path, so the rule sees a module-relative location.
    ("mem/new_unit", "void f() { SD_ASSERT(x, \"boom\"); }", ".cc",
     ["recoverable-assert"]),
    ("mem/memory_controller",
     "void f() { SD_ASSERT(a, \"x\"); SD_ASSERT(b, \"y\"); }", ".cc",
     []),  # within baseline
    ("mem/memory_controller",
     "void f() { SD_ASSERT(a, \"x\"); SD_ASSERT(b, \"y\"); "
     "SD_ASSERT(c, \"z\"); }", ".cc",
     ["recoverable-assert"]),  # above baseline
    ("trace/trace", "void f() { SD_ASSERT(x, \"fine\"); }", ".cc",
     []),  # not an injected module
    ("mem/new_unit2", "// SD_ASSERT(x) would be wrong here\nint x;",
     ".cc", []),  # comments don't count
    # queue-bypass cases
    ("compcpy/rogue_caller", "void f() { engine.startOp(p, s, cb); }",
     ".cc", ["queue-bypass"]),
    ("compcpy/queue", "void f() { engine_.startOp(p, s, cb); }", ".cc",
     []),  # the queue is the blessed dispatcher
    ("compcpy/compcpy", "void f() { startOp(p, s, cb); }", ".cc",
     []),  # the engine's own sync facade
    ("smartdimm/rogue2", "// startOp() is off limits\nint x;", ".cc",
     []),  # comments don't count
    # wakeup-bypass cases
    ("mem/rogue_scheduler",
     "void f() { events_.schedule(t, [this] { schedulePass(); }); }",
     ".cc", ["wakeup-bypass"]),
    ("mem/rogue_scheduler2",
     "void f() { events_.scheduleIn(5, [this] { schedulePass(); }); }",
     ".cc", ["wakeup-bypass"]),
    ("mem/memory_controller",
     "void a() { events_.schedule(t, [this] { schedulePass(); }); }\n"
     "void b() { events_.schedule(t, [this, e] { schedulePass(); }); }",
     ".cc", []),  # requestPass()'s two blessed sites
    ("mem/memory_controller",
     "void a() { events_.schedule(t, [this] { schedulePass(); }); }\n"
     "void b() { events_.schedule(t, [this, e] { schedulePass(); }); }\n"
     "void c() { events_.schedule(t, [this] { schedulePass(); }); }",
     ".cc", ["wakeup-bypass"]),  # a third site is flagged
    ("mem/ok_request", "void f() { requestPass(clock_.nextEdge(now)); }",
     ".cc", []),  # the blessed entry point
    ("mem/comment_only", "// events_.schedule(t, schedulePass) is banned\n",
     ".cc", []),  # comments don't count
    # topology-construction cases
    ("cache/rogue_rig",
     "void f() { cache::MemorySystem memory(e, g, i, c, d); }", ".cc",
     ["topology-construction"]),
    ("smartdimm/rogue_dimm",
     "void f() { smartdimm::BufferDevice dimm(e, m, s); }", ".cc",
     ["topology-construction"]),
    ("app/rogue_ptr",
     "auto m = std::make_unique<cache::MemorySystem>(a, b);", ".cc",
     ["topology-construction"]),
    ("app/rogue_new",
     "auto *d = new smartdimm::BufferDevice(a, b, c);", ".cc",
     ["topology-construction"]),
    ("topo/topology",
     "void f() { cache::MemorySystem memory(a, b); }", ".cc",
     []),  # the factory itself is the blessed construction site
    ("cache/ref_ok",
     "void f(cache::MemorySystem &m, smartdimm::BufferDevice *d) "
     "{ m.writeSync(0, p, n); }", ".cc",
     []),  # references and pointers are uses, not construction
    ("cache/member_ok",
     "void f() { std::deque<smartdimm::BufferDevice> pool; }", ".cc",
     []),  # container element types are not construction sites
    ("digit-separator",
     "Tick t = 100'000; int r = rand(); char c = '\\''; int s = rand();",
     ".cc", ["determinism", "determinism"]),  # `'` in 100'000 is code
]


def self_test() -> int:
    failures = 0
    for name, source, suffix, expected in SELF_TESTS:
        if "/" in name:
            test_path = pathlib.Path(name + suffix)
        else:
            test_path = pathlib.Path(f"<self-test:{name}>{suffix}")
        findings = lint_text(test_path, source)
        got = sorted(rule for _, _, rule, _ in findings)
        if got != sorted(expected):
            failures += 1
            print(f"FAIL {name}: expected {sorted(expected)}, got {got}")
            for f in findings:
                print(f"    {f}")
        else:
            print(f"ok   {name}")
    if failures:
        print(f"sdlint --self-test: {failures} failure(s)", file=sys.stderr)
        return 1
    print(f"sdlint --self-test: all {len(SELF_TESTS)} cases pass")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", type=pathlib.Path,
                        default=pathlib.Path(__file__).resolve().parent.parent,
                        help="repository root (default: repo containing this script)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the linter's own test corpus")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    return lint_tree(args.root)


if __name__ == "__main__":
    sys.exit(main())
