#!/usr/bin/env python3
"""sdcheck — the SmartDIMM static analyzer for project invariants.

Checks contracts that generic tools (clang-tidy, compiler warnings)
cannot express because they are *project* rules: per-file text rules,
control-flow-aware dataflow inside function bodies, and cross-
translation-unit joins over registries that span src/, tests/ and
bench/baselines/. Function extents come from libclang over the
CMake-exported compile_commands.json when the bindings are installed
(the CI job installs python3-clang); without them a conservative
tokenizer with the same rule semantics takes over, so developer
machines never silently skip a rule. The text rules read no function
extents, so both backends give them identical findings.

Rule catalogue:

  Text rules (per file; src/ only unless noted)
  determinism     no rand()/srand()/std::random_device — all randomness
                  flows through sd::Rng so runs replay bit-identically
                  from a seed.
  iostream        no `#include <iostream>` in a header — the static
                  ios_base initialiser would land in every TU; sinks
                  take std::ostream& instead.
  guards          every header has an #ifndef SD_* include guard.
  recoverable-assert
                  per-file SD_ASSERT budgets in the fault-injected
                  modules (RECOVERABLE_ASSERT_BASELINE): a new assert
                  there is usually a panic on a recoverable path.
  queue-bypass    CompCpyEngine::startOp() is the engine's private
                  execution hook for WorkQueue; everything else goes
                  through a queue (or the sync facade run()/start()),
                  so there is one execution path.
  wakeup-bypass   scheduler wakeups flow through requestPass(), which
                  coalesces redundant passes; scheduling a
                  schedulePass() lambda directly defeats that.
  topology-construction
                  MemorySystem/BufferDevice are constructed only by the
                  topo::Topology factory, which owns the address
                  windows, rebased MMIO bases, fault scopes and stat
                  names. Also covers bench/ and examples/
                  (production-shaped rigs); tests/ may wire bespoke
                  rigs.

  Flow and cross-module rules
  span-flow       every SD_SPAN_BEGIN reaches a matching SD_SPAN_END on
                  *all* paths through the function — early returns,
                  error branches, loops. A path-sensitive dataflow over
                  a block tree, so the branch-balanced if/else form
                  passes and an early-return leak does not. Async flows
                  that hand a span across functions use the raw Tracer
                  API, which the rule deliberately ignores.
  fault-coverage  every fault::Site enum member must be (a) injected
                  somewhere in src/ outside src/fault/, (b) named in the
                  kSiteNames stats table in positional (snake_case)
                  agreement with the enum, and (c) referenced by at
                  least one test — so a new fault site cannot ship
                  unobservable or untested.
  stat-registry   stat/span names declared in src/ (registry.add
                  components, block.scalar rows, span kinds) vs names
                  asserted in tests/ and rows committed under
                  bench/baselines/: coordinate-grammar violations,
                  orphan references, near-miss typos, and the explicit
                  1x1-legacy vs ".chC.dD" dual-naming contract (every
                  coordinate-tagged registration must degrade to a bare
                  legacy name at 1x1).
  mmio-map        the MmioReg register map: every k* offset defined
                  once, 8-byte aligned, 64-byte non-overlapping, inside
                  the device's MMIO window; and *accesses* flow only
                  through the window helpers (Driver::mmio() on the
                  host side, the device's own decoder) so per-DIMM
                  rebasing can never be bypassed with raw mmio_base
                  arithmetic.
  addr-arith      address arithmetic in mem/address_map, mem/dimm_mux,
                  topo/dispatcher and cache/: narrowing casts of
                  div/mod results must go through the checked
                  narrowIdx()/bits() helpers, byte<->line<->page unit
                  conversions must use the named constants
                  (kCacheLineSize/kLineBits/kLinesPerPage/...), and
                  line-unit and byte-unit quantities must not be mixed
                  additively in one expression.

Findings are emitted as JSON ({"rule","file","line","context","msg"})
and compared against the committed baseline tools/sdcheck_baseline.json
with the same contract as tools/bench_gate.py: unbaselined findings
fail, stale baseline entries warn, --update-baseline adopts the
current set. The clean-tree contract is an *empty* baseline — fix
findings instead of baselining them.

Usage:
  tools/sdcheck.py [--root DIR] [--build DIR] [--json OUT]
                   [--regex-only] [--update-baseline]
  tools/sdcheck.py --self-test [--root DIR]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import re
import sys

SRC_EXTS = {".h", ".cc"}

# The self-test fixture corpus lives inside tests/ but is analyzer
# input, not repo code — the real-tree walk must skip it or the bad
# fixtures would (correctly) fail the clean-tree contract.
FIXTURE_DIR = "tests/tools/fixtures/"


def is_fixture(rel: str) -> bool:
    return rel.startswith(FIXTURE_DIR)

# --------------------------------------------------------------------------
# Shared text utilities
# --------------------------------------------------------------------------


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


def lex(text: str) -> tuple:
    """The one C++ comment/literal scanner.

    @return (clean, literals): `clean` is @p text with comments and
    string/char literals blanked, offsets and newlines kept so line
    numbers and brace positions stay valid; `literals` lists each
    double-quoted literal's body with its offset."""
    out = []
    literals = []
    i, n = 0, len(text)
    state = "code"  # code | line | block | str | chr
    start = 0
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
                start = i + 1
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
                if state == "str":
                    literals.append((text[start:i], start))
                state = "code"
            out.append(" ")
        i += 1
    return "".join(out), literals


def strip_comments_and_strings(text: str) -> str:
    return lex(text)[0]


def string_literals(text: str) -> list:
    """All double-quoted literals outside comments, with offsets."""
    return lex(text)[1]


def line_of(text: str, pos: int) -> int:
    return text.count("\n", 0, pos) + 1


def _balanced_extent(text: str, open_pos: int) -> str:
    """The text inside the parenthesis group opening at @p open_pos."""
    depth = 0
    for i in range(open_pos, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return text[open_pos + 1:i]
    return text[open_pos + 1:]


def blank_preprocessor(clean: str) -> str:
    """Blank preprocessor lines (macro definitions must not count as
    uses) while keeping newlines."""
    lines = clean.split("\n")
    for idx, ln in enumerate(lines):
        if ln.lstrip().startswith("#"):
            lines[idx] = ""
    return "\n".join(lines)


def camel_to_snake(name: str) -> str:
    """kAlertStorm -> alert_storm."""
    if name.startswith("k"):
        name = name[1:]
    return re.sub(r"(?<!^)(?=[A-Z])", "_", name).lower()


def edit_distance(a: str, b: str, cap: int = 3) -> int:
    """Levenshtein with an early-out cap."""
    if abs(len(a) - len(b)) > cap:
        return cap + 1
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        best = i
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[-1] + 1,
                           prev[j - 1] + (ca != cb)))
            best = min(best, cur[-1])
        if best > cap:
            return cap + 1
        prev = cur
    return prev[-1]


class Finding:
    """One analyzer finding. Baseline identity deliberately excludes
    the line number so unrelated edits above a baselined finding do not
    churn the baseline (same philosophy as bench_gate row keys)."""

    def __init__(self, rule: str, file: str, line: int, context: str,
                 msg: str):
        self.rule = rule
        self.file = file
        self.line = line
        self.context = context
        self.msg = msg

    def key(self) -> tuple:
        return (self.rule, self.file, self.context)

    def as_json(self) -> dict:
        return {"rule": self.rule, "file": self.file, "line": self.line,
                "context": self.context, "msg": self.msg}

    def __repr__(self):
        return f"{self.file}:{self.line}: [{self.rule}] {self.msg}"


# --------------------------------------------------------------------------
# Text rules — what one file's comment-stripped text can decide. Each
# takes (rel, text, clean): the repo-relative path, the raw source and
# its lex()-cleaned form.
# --------------------------------------------------------------------------


def module_path(rel: str) -> str:
    """The last two path components ("mem/memory_controller.cc"): the
    key of the per-file allowances below."""
    return "/".join(rel.split("/")[-2:])


RANDOM_RE = re.compile(r"\b(?:srand|rand)\s*\(|std\s*::\s*random_device")


def check_determinism(rel: str, text: str, clean: str) -> list:
    return [Finding("determinism", rel, line_of(clean, m.start()),
                    re.sub(r"\s+", "", m.group(0)),
                    f"'{m.group(0).strip()}' breaks replayability; "
                    "use sd::Rng seeded from the config")
            for m in RANDOM_RE.finditer(clean)]


IOSTREAM_RE = re.compile(r"^\s*#\s*include\s*<iostream>", re.MULTILINE)


def check_iostream(rel: str, text: str, clean: str) -> list:
    if not rel.endswith(".h"):
        return []
    return [Finding("iostream", rel, line_of(clean, m.start()),
                    "<iostream>",
                    "<iostream> in a header drags the ios_base "
                    "initialiser into every TU; take std::ostream& "
                    "instead")
            for m in IOSTREAM_RE.finditer(clean)]


GUARD_RE = re.compile(r"^\s*#\s*ifndef\s+(SD_\w+)\s*$\s*^\s*#\s*define\s+\1\s*$",
                      re.MULTILINE)


def check_guards(rel: str, text: str, clean: str) -> list:
    if not rel.endswith(".h") or GUARD_RE.search(text):
        return []
    return [Finding("guards", rel, 1, "include-guard",
                    "header lacks an #ifndef SD_* include guard")]


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


def check_recoverable_assert(rel: str, text: str, clean: str) -> list:
    parts = rel.split("/")
    if len(parts) < 2 or parts[-2] not in INJECTED_MODULES:
        return []
    module = module_path(rel)
    asserts = list(ASSERT_RE.finditer(clean))
    allowed = RECOVERABLE_ASSERT_BASELINE.get(module, 0)
    if len(asserts) <= allowed:
        return []
    return [Finding(
        "recoverable-assert", rel, line_of(clean, asserts[-1].start()),
        "SD_ASSERT",
        f"{module} has {len(asserts)} SD_ASSERT(s), baseline {allowed}: "
        "this module runs under fault injection — handle the failure as "
        "a degraded mode (retry/reject/kDegraded + stat) or, for a "
        "genuine invariant, raise the baseline in sdcheck.py")]


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


def check_queue_bypass(rel: str, text: str, clean: str) -> list:
    if module_path(rel) in QUEUE_BYPASS_ALLOWED:
        return []
    return [Finding("queue-bypass", rel, line_of(clean, m.start()),
                    "startOp",
                    "startOp() bypasses the work-queue front end; submit "
                    "a Descriptor through a WorkQueue (or the sync facade "
                    "run()/start()) so the call is accounted and reaped")
            for m in QUEUE_BYPASS_RE.finditer(clean)]


SCHEDULE_CALL_RE = re.compile(r"\bschedule(?:In)?\s*\(")

# requestPass() is the only place allowed to put a schedulePass() event
# on the queue: it owns the pending-pass flag, the pass epoch and the
# wakeups_requested/coalesced accounting. The baseline covers its two
# legitimate schedule sites (uncoalesced reference mode + the epoch-
# guarded coalesced path). A site is a schedule call whose whole
# argument list names schedulePass, lambda bodies included.
WAKEUP_BYPASS_BASELINE = {
    "mem/memory_controller.cc": 2,
}


def check_wakeup_bypass(rel: str, text: str, clean: str) -> list:
    allowed = WAKEUP_BYPASS_BASELINE.get(module_path(rel), 0)
    sites = [m for m in SCHEDULE_CALL_RE.finditer(clean)
             if re.search(r"\bschedulePass\b",
                          _balanced_extent(clean, m.end() - 1))]
    return [Finding("wakeup-bypass", rel, line_of(clean, m.start()),
                    "schedulePass",
                    "scheduling schedulePass() directly bypasses "
                    "requestPass() wakeup coalescing; call "
                    "requestPass(when) instead (or, for a new legitimate "
                    "site inside it, raise the baseline in sdcheck.py)")
            for m in sites[allowed:]]


TOPOLOGY_CTOR_RE = re.compile(
    r"\bnew\s+(?:[\w:]+\s*::\s*)?(MemorySystem|BufferDevice)\b"
    r"|\bmake_unique\s*<\s*[\w:]*(MemorySystem|BufferDevice)\s*>"
    r"|\b(MemorySystem|BufferDevice)\s+\w+\s*[({]")

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


def check_topology_construction(rel: str, text: str, clean: str) -> list:
    if module_path(rel) in TOPOLOGY_CTOR_ALLOWED:
        return []
    return [Finding("topology-construction", rel,
                    line_of(clean, m.start()), m.group(m.lastindex),
                    "construct MemorySystem/BufferDevice through the "
                    "topo::Topology factory (topo/topology.h): it owns "
                    "the address windows, rebased MMIO bases, fault "
                    "scopes and stat names; only tests may wire bespoke "
                    "rigs")
            for m in TOPOLOGY_CTOR_RE.finditer(clean)]


TEXT_RULES = [check_determinism, check_iostream, check_guards,
              check_recoverable_assert, check_queue_bypass,
              check_wakeup_bypass, check_topology_construction]


def check_text(rel: str, text: str, clean: str) -> list:
    return [f for rule in TEXT_RULES for f in rule(rel, text, clean)]


# --------------------------------------------------------------------------
# Function extraction — libclang backend with tokenizer fallback
# --------------------------------------------------------------------------


class FunctionBody:
    def __init__(self, name: str, body: str, body_offset: int):
        self.name = name
        self.body = body  # text inside the braces, comment-stripped
        self.body_offset = body_offset  # offset of '{' in the file


FUNC_OPEN_RE = re.compile(
    r"\)\s*(?:const|noexcept|override|final|mutable|->\s*[\w:<>&*\s]+)*\s*$")
CONTROL_RE = re.compile(r"\b(?:if|for|while|switch|catch)\s*\($")
FUNC_NAME_RE = re.compile(r"([~\w:]+)\s*\([^()]*$")


def _matching_brace(clean: str, open_pos: int):
    depth = 0
    for i in range(open_pos, len(clean)):
        if clean[i] == "{":
            depth += 1
        elif clean[i] == "}":
            depth -= 1
            if depth == 0:
                return i
    return None


def extract_functions_regex(clean: str) -> list:
    """Heuristic function-definition finder: a '{' whose preceding text
    ends in a parameter list plus optional qualifiers opens a function
    body; control-statement parens do not match."""
    funcs = []
    i = 0
    n = len(clean)
    while i < n:
        if clean[i] != "{":
            i += 1
            continue
        before = clean[max(0, i - 240):i]
        if FUNC_OPEN_RE.search(before) and not CONTROL_RE.search(
                before.rstrip()[:-1].rstrip() + "("):
            close = _matching_brace(clean, i)
            if close is None:
                break
            # Function name: identifier before the last '(' run.
            header = before
            paren = header.rfind("(")
            name = "?"
            if paren > 0:
                m = FUNC_NAME_RE.search(header[:paren + 1])
                if m:
                    name = m.group(1)
            funcs.append(FunctionBody(name, clean[i + 1:close], i))
            i = close + 1
        else:
            i += 1
    return funcs


class ClangBackend:
    """Thin libclang wrapper: precise function extents per file. The
    analyses themselves run on the extracted body text, so the regex
    and clang backends report identical rule semantics — clang only
    removes the function-boundary heuristic."""

    def __init__(self, root: pathlib.Path, build: pathlib.Path):
        import clang.cindex as ci  # noqa: raises ImportError when absent
        self.ci = ci
        self.index = ci.Index.create()
        self.root = root
        self.comp_db = None
        db_dir = build if (build / "compile_commands.json").is_file() else None
        if db_dir is not None:
            self.comp_db = ci.CompilationDatabase.fromDirectory(str(db_dir))

    def args_for(self, path: pathlib.Path) -> list:
        if self.comp_db is not None:
            cmds = self.comp_db.getCompileCommands(str(path))
            if cmds:
                args = list(cmds[0].arguments)[1:-1]
                # Drop output/input artefacts; keep -I/-D/-std.
                keep, skip_next = [], False
                for a in args:
                    if skip_next:
                        skip_next = False
                        continue
                    if a in ("-o", "-c"):
                        skip_next = a == "-o"
                        continue
                    keep.append(a)
                return keep
        return [f"-I{self.root}/src", "-std=c++20"]

    def functions(self, path: pathlib.Path, clean: str) -> list:
        ci = self.ci
        tu = self.index.parse(
            str(path), args=self.args_for(path),
            options=ci.TranslationUnit.PARSE_SKIP_FUNCTION_BODIES * 0)
        funcs = []
        kinds = (ci.CursorKind.FUNCTION_DECL, ci.CursorKind.CXX_METHOD,
                 ci.CursorKind.CONSTRUCTOR, ci.CursorKind.DESTRUCTOR,
                 ci.CursorKind.FUNCTION_TEMPLATE)

        def walk(cur):
            for child in cur.get_children():
                if (child.kind in kinds and child.is_definition() and
                        child.location.file and
                        pathlib.Path(str(child.location.file.name)) == path):
                    ext = child.extent
                    start = ext.start.offset
                    end = min(ext.end.offset, len(clean))
                    open_pos = clean.find("{", start, end)
                    if open_pos >= 0:
                        close = _matching_brace(clean, open_pos)
                        if close is not None and close <= end:
                            funcs.append(FunctionBody(
                                child.spelling or "?",
                                clean[open_pos + 1:close], open_pos))
                walk(child)

        walk(tu.cursor)
        return funcs


def make_backend(root: pathlib.Path, build: pathlib.Path,
                 regex_only: bool):
    """@return (functions_fn, backend_name)."""
    if not regex_only:
        try:
            clang = ClangBackend(root, build)

            def clang_functions(path, clean):
                try:
                    funcs = clang.functions(path, clean)
                    if funcs:
                        return funcs
                except Exception:
                    pass
                return extract_functions_regex(clean)

            return clang_functions, "libclang"
        except Exception:
            pass
    return (lambda path, clean: extract_functions_regex(clean)), "regex"


# --------------------------------------------------------------------------
# Rule: span-flow — path-sensitive SD_SPAN_BEGIN/END balance
# --------------------------------------------------------------------------

# The block tree is built from a statement-level tokenizer; the
# dataflow tracks the *set of possible open-span counts* at each
# program point. Sets stay tiny (functions open at most a couple of
# spans), so exactness is cheap.

SPAN_TOKEN_RE = re.compile(
    r"\bSD_SPAN_(BEGIN|END)\b|\breturn\b|\bthrow\b|\bif\b|\belse\b"
    r"|\bfor\b|\bwhile\b|\bdo\b|\bswitch\b|\bcase\b|\bdefault\b"
    r"|\bbreak\b|\bcontinue\b|[{}();]")


class _Tok:
    def __init__(self, kind, pos):
        self.kind = kind
        self.pos = pos

    def __repr__(self):
        return f"<{self.kind}@{self.pos}>"


def _span_tokens(body: str) -> list:
    toks = []
    for m in SPAN_TOKEN_RE.finditer(body):
        t = m.group(0)
        if t.startswith("SD_SPAN_"):
            toks.append(_Tok("begin" if m.group(1) == "BEGIN" else "end",
                             m.start()))
        else:
            toks.append(_Tok(t, m.start()))
    return toks


class _SpanParser:
    """Recursive-descent parser producing a nested block structure:
    ('seq', [nodes]) | ('if', then, else|None) | ('loop', body) |
    ('switch', [segments]) | ('begin'|'end'|'return'|'throw'|
    'break'|'continue', pos)."""

    def __init__(self, toks):
        self.toks = toks
        self.i = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def next(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def skip_parens(self):
        """Consume a balanced (...) group if one is next."""
        if self.peek() and self.peek().kind == "(":
            depth = 0
            while self.peek():
                t = self.next()
                if t.kind == "(":
                    depth += 1
                elif t.kind == ")":
                    depth -= 1
                    if depth == 0:
                        return

    def parse_seq(self, stop_on_close: bool) -> list:
        nodes = []
        while self.peek():
            t = self.peek()
            if t.kind == "}":
                if stop_on_close:
                    self.next()
                return nodes
            nodes.append(self.parse_stmt())
        return nodes

    def parse_block_or_stmt(self):
        """A brace block, or a single statement (unbraced if-body)."""
        if self.peek() and self.peek().kind == "{":
            self.next()
            return ("seq", self.parse_seq(stop_on_close=True))
        return ("seq", [self.parse_stmt()] if self.peek() else [])

    def parse_stmt(self):
        t = self.next()
        k = t.kind
        if k == "{":
            return ("seq", self.parse_seq(stop_on_close=True))
        if k == "if":
            self.skip_parens()
            then = self.parse_block_or_stmt()
            els = None
            if self.peek() and self.peek().kind == "else":
                self.next()
                els = self.parse_block_or_stmt()
            return ("if", then, els)
        if k in ("for", "while"):
            self.skip_parens()
            return ("loop", self.parse_block_or_stmt())
        if k == "do":
            body = self.parse_block_or_stmt()
            # trailing while(...) ;
            if self.peek() and self.peek().kind == "while":
                self.next()
                self.skip_parens()
            return ("loop", body)
        if k == "switch":
            self.skip_parens()
            if self.peek() and self.peek().kind == "{":
                self.next()
                return self.parse_switch()
            return ("seq", [])
        if k in ("begin", "end", "return", "throw", "break", "continue"):
            # Consume the rest of the statement so e.g. a call in a
            # return expression is not re-parsed; nested begins inside
            # the expression still surface as their own tokens first
            # because the regex tokenizer runs positionally — so scan
            # forward to the ';' collecting span tokens.
            extra = []
            depth = 0
            while self.peek():
                nt = self.peek()
                if nt.kind == "(":
                    depth += 1
                elif nt.kind == ")":
                    depth -= 1
                elif nt.kind == ";" and depth <= 0:
                    self.next()
                    break
                elif nt.kind in ("begin", "end"):
                    extra.append((nt.kind, nt.pos))
                elif nt.kind in ("{", "}"):
                    break
                self.next()
            node = (k, t.pos)
            if extra:
                return ("seq", [(kind, pos) for kind, pos in extra] +
                        [node])
            return node
        # case/default labels, parens, semicolons: structural noise.
        return ("nop", t.pos)

    def parse_switch(self):
        """Split the switch body into case segments; each segment is an
        alternative (fallthrough is modelled by also offering the
        concatenation-free union, which is conservative for span
        counting in practice)."""
        segments = []
        current = []
        depth = 0
        while self.peek():
            t = self.peek()
            if t.kind == "}" and depth == 0:
                self.next()
                break
            if t.kind in ("case", "default") and depth == 0:
                self.next()
                if current:
                    segments.append(("seq", current))
                    current = []
                continue
            if t.kind == "{":
                depth += 1
            elif t.kind == "}":
                depth -= 1
            current.append(self.parse_stmt())
        if current:
            segments.append(("seq", current))
        return ("switch", segments)


class _SpanFlow:
    """Dataflow over the block tree. States are frozensets of possible
    open-span counts; an empty set means every path already left the
    function."""

    MAX_OPEN = 8

    def __init__(self, fn: FunctionBody, clean: str, path: str,
                 findings: list, rule: str = "span-flow"):
        self.fn = fn
        self.clean = clean
        self.path = path
        self.findings = findings
        self.rule = rule
        self.loop_exits = []  # stack of sets collected from break/continue
        self.reported = set()

    def report(self, pos: int, msg: str):
        line = line_of(self.clean, self.fn.body_offset + 1 + pos)
        key = (msg,)
        if key in self.reported:
            return
        self.reported.add(key)
        self.findings.append(Finding(
            self.rule, self.path, line, self.fn.name, msg))

    def run(self):
        toks = _span_tokens(self.fn.body)
        if not any(t.kind in ("begin", "end") for t in toks):
            return
        tree = ("seq", _SpanParser(toks).parse_seq(stop_on_close=False))
        exit_set = self.eval(tree, frozenset([0]))
        for open_count in exit_set:
            if open_count > 0:
                self.report(
                    len(self.fn.body) - 1,
                    f"function '{self.fn.name}' can fall off the end "
                    f"with {open_count} SD_SPAN_BEGIN span(s) still "
                    "open; close them with SD_SPAN_END on every path")
                break

    def eval(self, node, state: frozenset) -> frozenset:
        kind = node[0]
        if not state and kind not in ("seq",):
            return state
        if kind == "seq":
            for child in node[1]:
                state = self.eval(child, state)
                if not state:
                    break
            return state
        if kind == "begin":
            return frozenset(min(s + 1, self.MAX_OPEN) for s in state)
        if kind == "end":
            if state and min(state) == 0:
                self.report(node[1],
                            "SD_SPAN_END with no SD_SPAN_BEGIN open on "
                            "some path")
            return frozenset(max(s - 1, 0) for s in state)
        if kind in ("return", "throw"):
            leaked = [s for s in state if s > 0]
            if leaked:
                what = "return" if kind == "return" else "throw"
                self.report(node[1],
                            f"early {what} leaks {max(leaked)} open "
                            "SD_SPAN_BEGIN span(s); SD_SPAN_END before "
                            "leaving the function")
            return frozenset()
        if kind in ("break", "continue"):
            if self.loop_exits:
                self.loop_exits[-1] |= state
            return frozenset()
        if kind == "if":
            then_out = self.eval(node[1], state)
            if node[2] is not None:
                else_out = self.eval(node[2], state)
            else:
                else_out = state
            return then_out | else_out
        if kind == "loop":
            self.loop_exits.append(set())
            body_out = self.eval(node[1], state)
            breaks = frozenset(self.loop_exits.pop())
            grew = {s for s in body_out if s not in state}
            if grew:
                self.report(
                    0, "span opened inside a loop body is not closed "
                       "within the same iteration")
            return state | body_out | breaks
        if kind == "switch":
            out = state  # no case taken
            for seg in node[1]:
                out = out | self.eval(seg, state)
            return out
        return state  # nop


def check_span_flow(path_label: str, clean: str, functions,
                    findings: list):
    """@param functions maps preprocessor-blanked text to its
    FunctionBody list (one backend's extents for this file)."""
    body_clean = blank_preprocessor(clean)
    for fn in functions(body_clean):
        _SpanFlow(fn, body_clean, path_label, findings).run()


# --------------------------------------------------------------------------
# Rule: fault-coverage — Site enum cross-referenced repo-wide
# --------------------------------------------------------------------------

SITE_ENUM_RE = re.compile(
    r"enum\s+class\s+Site[^{]*\{(.*?)\}", re.DOTALL)
SITE_MEMBER_RE = re.compile(r"\b(k[A-Z]\w*)\b")
SITE_NAMES_ARRAY_RE = re.compile(
    r"kSiteNames\s*(?:\[\s*\])?\s*=\s*\{(.*?)\}", re.DOTALL)


def check_fault_coverage(root: pathlib.Path, findings: list,
                         read=None) -> dict:
    """@return summary dict (used by --json and the acceptance test)."""
    read = read or (lambda p: p.read_text())
    fault_h = root / "src" / "fault" / "fault.h"
    fault_cc = root / "src" / "fault" / "fault.cc"
    summary = {"sites": [], "covered": 0}
    if not fault_h.is_file():
        return summary
    clean_h = strip_comments_and_strings(read(fault_h))
    m = SITE_ENUM_RE.search(clean_h)
    if not m:
        findings.append(Finding(
            "fault-coverage", "src/fault/fault.h", 1, "Site",
            "cannot locate `enum class Site`"))
        return summary
    members = [x for x in SITE_MEMBER_RE.findall(m.group(1))
               if x != "kCount"]
    enum_line = line_of(clean_h, m.start())

    names = []
    if fault_cc.is_file():
        am = SITE_NAMES_ARRAY_RE.search(read(fault_cc))
        if am:
            names = [lit for lit, _ in string_literals(am.group(1))]

    # Positional snake_case agreement between enum and names table.
    if len(names) != len(members):
        findings.append(Finding(
            "fault-coverage", "src/fault/fault.cc", 1, "kSiteNames",
            f"kSiteNames has {len(names)} entries but enum Site has "
            f"{len(members)} members (excluding kCount); stats and "
            "spec parsing would misattribute sites"))
    else:
        for i, (member, name) in enumerate(zip(members, names)):
            expect = camel_to_snake(member)
            if name != expect:
                findings.append(Finding(
                    "fault-coverage", "src/fault/fault.cc", 1,
                    member,
                    f"kSiteNames[{i}] is '{name}' but Site::{member} "
                    f"expects '{expect}' — positional mismatch breaks "
                    "siteName()/fromSpec round-trips"))

    # Gather usage: injection sites in src (outside src/fault), test
    # references in tests/ (by enum name or snake name).
    src_uses = {mname: [] for mname in members}
    test_uses = {mname: [] for mname in members}
    for base, bucket in (("src", src_uses), ("tests", test_uses)):
        for path in sorted((root / base).rglob("*")):
            if path.suffix not in SRC_EXTS or not path.is_file():
                continue
            rel = path.relative_to(root).as_posix()
            if base == "src" and rel.startswith("src/fault/"):
                continue
            if is_fixture(rel):
                continue
            text = read(path)
            clean = strip_comments_and_strings(text)
            for mname in members:
                if re.search(rf"\bSite\s*::\s*{mname}\b", clean):
                    bucket[mname].append(rel)
                elif base == "tests" and camel_to_snake(mname) in text:
                    bucket[mname].append(rel)

    for mname in members:
        site = {"site": mname, "name": camel_to_snake(mname),
                "injection_sites": src_uses[mname],
                "tests": test_uses[mname],
                "stats_counter": camel_to_snake(mname) in names}
        summary["sites"].append(site)
        missing = []
        if not src_uses[mname]:
            missing.append("an injection call site in src/")
        if camel_to_snake(mname) not in names:
            missing.append("a kSiteNames stats entry")
        if not test_uses[mname]:
            missing.append("a test reference")
        if missing:
            findings.append(Finding(
                "fault-coverage", "src/fault/fault.h", enum_line, mname,
                f"Site::{mname} lacks " + " and ".join(missing) +
                "; fault sites must ship observable and tested"))
        else:
            summary["covered"] += 1
    return summary


# --------------------------------------------------------------------------
# Rule: stat-registry — declared vs referenced stat/span names
# --------------------------------------------------------------------------

HIST_SUFFIXES = (".count", ".mean", ".p50", ".p90", ".p99", ".max")
COORD_RE = re.compile(r"^([a-z_]+(?:\.[a-z_]+)*)\.ch(\d+)(?:\.d(\d+))?$")
STAT_LIKE_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)*$")

REGISTRY_ADD_RE = re.compile(r'registry\.add\(\s*"([^"]+)"')
REGISTRY_ADD_PREFIX_RE = re.compile(
    r'registry\.add\(\s*(?:prefix\s*\+\s*)?"([^"]+)"\s*\+?')
SCALAR_RE = re.compile(r'(?:scalar|hist)\(\s*"([^"]+)"')
SCALAR_PREFIX_RE = re.compile(r'(?:scalar|hist)\(\s*\w+\s*\+\s*"(\.[^"]+)"')
SPAN_KIND_RE = re.compile(
    r'(?:beginSpan|internString)\(\s*"([a-z][a-z0-9_.]*)"')
CH_CONCAT_RE = re.compile(r'"\.?ch"\s*\+|"([a-z_.]+\.ch)"\s*\+')


def collect_declared_names(root: pathlib.Path, read=None) -> dict:
    read = read or (lambda p: p.read_text())
    decl = {"components": set(), "scalars": set(), "spans": set(),
            "coord_bases": set(), "files": {}}
    for path in sorted((root / "src").rglob("*")):
        if path.suffix not in SRC_EXTS or not path.is_file():
            continue
        text = read(path)
        rel = path.relative_to(root).as_posix()
        for m in REGISTRY_ADD_PREFIX_RE.finditer(text):
            decl["components"].add(m.group(1))
            decl["files"].setdefault(m.group(1), rel)
        for m in SCALAR_RE.finditer(text):
            decl["scalars"].add(m.group(1))
        for m in SCALAR_PREFIX_RE.finditer(text):
            decl["scalars"].add("*" + m.group(1))  # suffix pattern
        for m in SPAN_KIND_RE.finditer(text):
            decl["spans"].add(m.group(1))
        for m in CH_CONCAT_RE.finditer(text):
            # A ".ch" concatenation marks coordinate tagging; the base
            # is whatever literal component(s) this file registers.
            for c in REGISTRY_ADD_PREFIX_RE.findall(text):
                decl["coord_bases"].add(c.rstrip("."))
    # Fault-site stat rows are derived, not literal.
    fault_cc = root / "src" / "fault" / "fault.cc"
    if fault_cc.is_file():
        am = SITE_NAMES_ARRAY_RE.search(read(fault_cc))
        if am:
            for lit, _ in string_literals(am.group(1)):
                decl["scalars"].add(lit + ".triggers")
                decl["scalars"].add(lit + ".injected")
    # Queue/dispatcher tags compose "queue.chC.dD" from a full literal.
    return decl


def _declared_component(name: str, decl: dict) -> bool:
    if name in decl["components"]:
        return True
    m = COORD_RE.match(name)
    if m:
        base = m.group(1)
        # "queue.ch0.d0" is declared via the literal "queue.ch" concat
        # or a bare base that topology tags with a suffix.
        if base in decl["components"] or base + ".ch" in \
                {c.rstrip(".") + ".ch" for c in decl["components"]}:
            return True
        if base in decl["coord_bases"]:
            return True
        # "mc.ch0": declared as "mc.ch" + to_string(ch).
        if any(c.endswith(".ch") and base == c[:-3].rstrip(".")
               for c in decl["components"]):
            return True
    return False


def _scalar_declared(name: str, decl: dict) -> bool:
    if name in decl["scalars"] or name in decl["spans"]:
        return True
    for suffix in HIST_SUFFIXES:
        if name.endswith(suffix) and (
                name[:-len(suffix)] in decl["scalars"]):
            return True
    for pattern in decl["scalars"]:
        if pattern.startswith("*") and name.endswith(pattern[1:]):
            return True
    return False


def check_stat_registry(root: pathlib.Path, findings: list,
                        read=None) -> None:
    read = read or (lambda p: p.read_text())
    decl = collect_declared_names(root, read)

    # (a) Dual-naming contract: a name composing BOTH ".ch" and ".d"
    # coordinates (the chC.dD two-coordinate grammar) must provide the
    # 1x1 legacy alternative — an empty suffix, a bare-literal
    # fallback, or a `tagged`-style guard — in the same statement.
    # Channel-only names ("mc.chN") are canonical at every topology
    # and carry no dual-naming obligation.
    for path in sorted((root / "src").rglob("*.cc")):
        if not path.is_file():
            continue
        text = read(path)
        rel = path.relative_to(root).as_posix()
        for m in re.finditer(r'"(\.?[a-z_.]*ch)"\s*\+', text):
            window = text[max(0, m.start() - 400):m.start() + 400]
            if '".d"' not in window and '".d" +' not in window:
                continue
            if ("std::string()" not in window and
                    not re.search(r':\s*std::string\("[a-z_]+"\)', window)
                    and "suffix" not in window
                    and "tagged" not in window):
                findings.append(Finding(
                    "stat-registry", rel, line_of(text, m.start()),
                    m.group(1),
                    "coordinate-tagged stat name has no 1x1 legacy "
                    "fallback in the same registration; at 1x1 the "
                    "legacy (untagged) name must be emitted so "
                    "existing dashboards and goldens keep resolving"))

    # (b) References in tests/: exact component/scalar names pass;
    # near-misses are typos; coordinate grammar must parse.
    known = decl["components"] | decl["scalars"] | decl["spans"]
    for path in sorted((root / "tests").rglob("*.cc")):
        if not path.is_file():
            continue
        rel = path.relative_to(root).as_posix()
        if is_fixture(rel):
            continue
        text = read(path)
        for lit, pos in string_literals(text):
            if not STAT_LIKE_RE.match(lit) or len(lit) < 4:
                continue
            if "." not in lit:
                continue  # bare words are too ambiguous to audit
            if _declared_component(lit, decl) or _scalar_declared(
                    lit, decl):
                continue
            m = COORD_RE.match(lit)
            if m and not _declared_component(lit, decl):
                findings.append(Finding(
                    "stat-registry", rel, line_of(text, pos), lit,
                    f"test references coordinate stat '{lit}' whose "
                    f"base '{m.group(1)}' no src/ registration "
                    "declares — orphan or typo"))
                continue
            best, dist = None, 3
            for cand in known:
                d = edit_distance(lit, cand, cap=2)
                if d < dist:
                    best, dist = cand, d
            if best is not None and dist <= 2:
                findings.append(Finding(
                    "stat-registry", rel, line_of(text, pos), lit,
                    f"test references stat name '{lit}' which no src/ "
                    f"code declares; did you mean '{best}'?"))

    # (c) bench/baselines rows: every gated metric key must be emitted
    # by some bench source, else the baseline gates a phantom metric.
    bench_srcs = ""
    bench_dir = root / "bench"
    if bench_dir.is_dir():
        for path in sorted(bench_dir.glob("*")):
            if path.suffix in SRC_EXTS and path.is_file():
                bench_srcs += read(path)
    baselines = root / "bench" / "baselines"
    if baselines.is_dir() and bench_srcs:
        for bpath in sorted(baselines.glob("*.json")):
            try:
                doc = json.loads(read(bpath))
            except (ValueError, OSError):
                findings.append(Finding(
                    "stat-registry",
                    bpath.relative_to(root).as_posix(), 1,
                    bpath.name, "baseline file is not valid JSON"))
                continue
            rel = bpath.relative_to(root).as_posix()
            keys = set()
            for row in doc.get("results", []):
                keys.update(k for k, v in row.items()
                            if isinstance(v, (int, float)))
            for key in sorted(keys):
                # JSON keys appear in bench sources as escaped
                # literals: << "\"key\": " — match both forms.
                if not re.search(r'\\?"' + re.escape(key) + r'\\?"',
                                 bench_srcs):
                    findings.append(Finding(
                        "stat-registry", rel, 1, key,
                        f"baseline metric '{key}' is emitted by no "
                        "bench/*.cc — stale row or emitter typo; the "
                        "bench gate would fail on a missing metric"))


# --------------------------------------------------------------------------
# Rule: mmio-map — register map shape + window-helper-only access
# --------------------------------------------------------------------------

MMIO_ENUM_RE = re.compile(r"enum\s+class\s+MmioReg[^{]*\{(.*?)\}",
                          re.DOTALL)
MMIO_ENTRY_RE = re.compile(r"(\w+)\s*=\s*(0[xX][0-9a-fA-F]+|\d+)")
MMIO_BYTES_RE = re.compile(
    r"mmio_bytes\s*=\s*(\d+)\s*ULL\s*<<\s*(\d+)|mmio_bytes\s*=\s*(\d+)")
MMIO_REG_BYTES = 64

# Files allowed to touch mmio_base / decode MmioReg numerically: the
# config that defines the window, the driver (host-side window
# helper), the device decoder, and the topology factory that rebases
# per-slot windows.
MMIO_RAW_ALLOWED = {
    "src/smartdimm/config.h",
    "src/compcpy/driver.h",
    "src/smartdimm/buffer_device.h",
    "src/smartdimm/buffer_device.cc",
    "src/topo/topology.h",
    "src/topo/topology.cc",
}


def check_mmio_map(root: pathlib.Path, findings: list, read=None):
    read = read or (lambda p: p.read_text())
    config_h = root / "src" / "smartdimm" / "config.h"
    window_bytes = 1 << 20
    entries = []
    if config_h.is_file():
        clean = strip_comments_and_strings(read(config_h))
        wm = MMIO_BYTES_RE.search(clean)
        if wm:
            if wm.group(1):
                window_bytes = int(wm.group(1)) << int(wm.group(2))
            else:
                window_bytes = int(wm.group(3))
        em = MMIO_ENUM_RE.search(clean)
        if em:
            base_line = line_of(clean, em.start(1))
            for entry in MMIO_ENTRY_RE.finditer(em.group(1)):
                name, value = entry.group(1), int(entry.group(2), 0)
                lineno = base_line + em.group(1).count(
                    "\n", 0, entry.start())
                entries.append((name, value, lineno))

    rel_cfg = "src/smartdimm/config.h"
    seen = {}
    for name, value, lineno in entries:
        if value % 8 != 0:
            findings.append(Finding(
                "mmio-map", rel_cfg, lineno, name,
                f"MmioReg::{name} = {value:#x} is not 8-byte aligned; "
                "the DSA decoder does 64-bit MMIO loads"))
        if value in seen:
            findings.append(Finding(
                "mmio-map", rel_cfg, lineno, name,
                f"MmioReg::{name} = {value:#x} collides with "
                f"MmioReg::{seen[value]}"))
        else:
            seen[value] = name
        if value + MMIO_REG_BYTES > window_bytes:
            findings.append(Finding(
                "mmio-map", rel_cfg, lineno, name,
                f"MmioReg::{name} = {value:#x} does not fit the "
                f"{window_bytes:#x}-byte per-DIMM MMIO window; the "
                "topology's rebased windows would overlap the next "
                "slot"))
    # 64-byte register granularity: registers are full MMIO bursts,
    # so any two offsets closer than 64 bytes overlap.
    ordered = sorted((v, n, ln) for n, v, ln in entries)
    for (v1, n1, _), (v2, n2, ln2) in zip(ordered, ordered[1:]):
        if v2 - v1 < MMIO_REG_BYTES and v1 != v2:  # dup reported above
            findings.append(Finding(
                "mmio-map", rel_cfg, ln2, n2,
                f"MmioReg::{n2} = {v2:#x} overlaps the 64-byte "
                f"register MmioReg::{n1} = {v1:#x}"))

    # Access discipline: outside the allowlist, mmio_base arithmetic
    # and numeric MmioReg casts are banned; MmioReg uses must flow
    # through a .mmio(...) window-helper call.
    for path in sorted((root / "src").rglob("*")):
        if path.suffix not in SRC_EXTS or not path.is_file():
            continue
        rel = path.relative_to(root).as_posix()
        if rel in MMIO_RAW_ALLOWED:
            continue
        clean = strip_comments_and_strings(read(path))
        for m in re.finditer(r"\bmmio_base\b", clean):
            findings.append(Finding(
                "mmio-map", rel, line_of(clean, m.start()), "mmio_base",
                "raw mmio_base arithmetic outside the window helpers; "
                "use Driver::mmio(MmioReg::...) so per-DIMM rebasing "
                "cannot be bypassed"))
        for m in re.finditer(
                r"static_cast\s*<\s*(?:sd::)?Addr\s*>\s*\(\s*"
                r"(?:[\w:]+::)?MmioReg", clean):
            findings.append(Finding(
                "mmio-map", rel, line_of(clean, m.start()), "MmioReg-cast",
                "numeric MmioReg cast outside the window helpers; go "
                "through Driver::mmio()"))
        for m in re.finditer(r"\bMmioReg\s*::\s*k\w+", clean):
            before = clean[max(0, m.start() - 80):m.start()]
            if re.search(r"\bmmio\s*\(\s*(?:[\w:]+::)?$", before):
                continue  # driver.mmio(MmioReg::kX) — the blessed helper
            if re.search(r"\bcase\s*$", before.rstrip()[-8:] + ""):
                continue  # decoder switch (allowlisted files anyway)
            findings.append(Finding(
                "mmio-map", rel, line_of(clean, m.start()), m.group(0),
                f"{m.group(0)} used outside a .mmio(...) window-helper "
                "call; register addresses must come from Driver::mmio()"))


# --------------------------------------------------------------------------
# Rule: addr-arith — narrowing + unit-mixing in address arithmetic
# --------------------------------------------------------------------------

ADDR_AUDITED = (
    "src/mem/address_map.h", "src/mem/address_map.cc",
    "src/mem/dimm_mux.h",
    "src/topo/dispatcher.h", "src/topo/dispatcher.cc",
    "src/cache/cache.h", "src/cache/cache.cc",
    "src/cache/memory_system.h", "src/cache/memory_system.cc",
)

NARROW_CAST_RE = re.compile(
    r"static_cast\s*<\s*(unsigned(?:\s+int)?|int|std::uint(?:8|16|32)_t)"
    r"\s*>\s*\(")
MAGIC_UNIT_RES = [
    (re.compile(r"(?:>>|<<)\s*6\b"),
     "magic shift by 6; use kLineBits (line<->byte) or kPageLineBits "
     "(line<->page) so the unit conversion is named"),
    (re.compile(r"(?:>>|<<)\s*12\b"),
     "magic shift by 12; use kPageBits for byte<->page conversions"),
    (re.compile(r"[*/%]\s*64\b(?!\s*['\w])"),
     "magic 64 in address arithmetic; use kCacheLineSize or "
     "kLinesPerPage"),
    (re.compile(r"&\s*63\b"),
     "magic mask 63; use (kCacheLineSize - 1) or (kLinesPerPage - 1)"),
    (re.compile(r"\b4096\b"),
     "magic 4096 in address arithmetic; use kPageSize"),
]
LINEISH_RE = re.compile(r"\b\w*lines?\w*\b", re.IGNORECASE)
BYTEISH_RE = re.compile(r"\b\w*bytes?\w*\b", re.IGNORECASE)
UNIT_OK_RE = re.compile(r"kCacheLineSize|kLineBits|kPageSize|kPageBits"
                        r"|kLinesPerPage|kPageLineBits")


def check_addr_arith(root: pathlib.Path, findings: list, read=None,
                     audited=ADDR_AUDITED):
    read = read or (lambda p: p.read_text())
    for rel in audited:
        path = root / rel
        if not path.is_file():
            continue
        clean = blank_preprocessor(
            strip_comments_and_strings(read(path)))

        # (a) narrowing casts of div/mod results must be checked.
        for m in NARROW_CAST_RE.finditer(clean):
            arg = _balanced_extent(clean, m.end() - 1)
            if not re.search(r"[/%]", arg):
                continue
            if re.search(r"\b(?:bits|narrowIdx)\s*\(", arg):
                continue
            findings.append(Finding(
                "addr-arith", rel, line_of(clean, m.start()),
                m.group(0).replace(" ", ""),
                f"unchecked narrowing cast of a div/mod result "
                f"('{arg.strip()[:40]}'); route through narrowIdx() "
                "(bound-asserting) or bits() so a geometry bug cannot "
                "silently truncate an index"))

        # (b) magic unit constants.
        for unit_re, msg in MAGIC_UNIT_RES:
            for m in unit_re.finditer(clean):
                findings.append(Finding(
                    "addr-arith", rel, line_of(clean, m.start()),
                    m.group(0).replace(" ", ""), msg))

        # (c) additive mixing of line-unit and byte-unit quantities.
        for stmt_m in re.finditer(r"[^;{}]+", clean):
            stmt = stmt_m.group(0)
            if "+" not in stmt and "-" not in stmt:
                continue
            if UNIT_OK_RE.search(stmt):
                continue
            # Only additive contexts: split on = to get the expression.
            expr = stmt.split("=", 1)[-1]
            lin = LINEISH_RE.search(expr)
            byt = BYTEISH_RE.search(expr)
            if not lin or not byt:
                continue
            between = expr[min(lin.start(), byt.start()):
                           max(lin.end(), byt.end())]
            if re.search(r"[+\-]", between) and "/" not in between \
                    and "*" not in between:
                findings.append(Finding(
                    "addr-arith", rel,
                    line_of(clean, stmt_m.start() +
                            stmt.find(expr.strip()[:1]) if True else 0),
                    f"{lin.group(0)}+{byt.group(0)}",
                    f"additive mix of line-unit '{lin.group(0)}' and "
                    f"byte-unit '{byt.group(0)}' without a "
                    "kCacheLineSize conversion — unit confusion"))


# --------------------------------------------------------------------------
# Driver: run all rules over the tree
# --------------------------------------------------------------------------


def run_analysis(root: pathlib.Path, build: pathlib.Path,
                 regex_only: bool):
    """@return (findings, backend_name, fault_summary)."""
    functions, backend = make_backend(root, build, regex_only)
    findings = []

    # Per-file rules over every src/ translation unit: the text rules
    # and span-flow.
    for path in sorted((root / "src").rglob("*")):
        if path.suffix not in SRC_EXTS or not path.is_file():
            continue
        rel = path.relative_to(root).as_posix()
        text = path.read_text()
        clean = strip_comments_and_strings(text)
        findings.extend(check_text(rel, text, clean))
        check_span_flow(rel, clean, lambda c, p=path: functions(p, c),
                        findings)
    # bench/ and examples/ build production-shaped rigs, so the
    # topology-construction rule (and only it) extends there; tests/
    # stay free to wire bespoke rigs.
    for sub in ("bench", "examples"):
        for path in sorted((root / sub).rglob("*")):
            if path.suffix in SRC_EXTS | {".cpp"} and path.is_file():
                text = path.read_text()
                findings.extend(check_topology_construction(
                    path.relative_to(root).as_posix(), text,
                    strip_comments_and_strings(text)))

    # Cross-module rules.
    fault_summary = check_fault_coverage(root, findings)
    check_stat_registry(root, findings)
    check_mmio_map(root, findings)
    check_addr_arith(root, findings)
    return findings, backend, fault_summary


# --------------------------------------------------------------------------
# Baseline contract (same shape as bench_gate: committed file, fail on
# unbaselined, warn on stale, --update-baseline adopts)
# --------------------------------------------------------------------------


def load_baseline(path: pathlib.Path) -> list:
    if not path.is_file():
        return []
    doc = json.loads(path.read_text())
    return [(e["rule"], e["file"], e["context"]) for e in
            doc.get("findings", [])]


def apply_baseline(findings: list, baseline: list):
    """@return (unbaselined, stale)."""
    budget = {}
    for key in baseline:
        budget[key] = budget.get(key, 0) + 1
    unbaselined = []
    for f in findings:
        if budget.get(f.key(), 0) > 0:
            budget[f.key()] -= 1
        else:
            unbaselined.append(f)
    stale = [k for k, n in budget.items() for _ in range(n) if n > 0]
    return unbaselined, stale


def write_baseline(findings: list, path: pathlib.Path):
    doc = {"findings": [
        {"rule": f.rule, "file": f.file, "context": f.context}
        for f in sorted(findings, key=lambda f: f.key())]}
    path.write_text(json.dumps(doc, indent=2) + "\n")


# --------------------------------------------------------------------------
# Self test — embedded corpus + on-disk fixtures (tests/tools/fixtures)
# --------------------------------------------------------------------------

SPAN_SELF_TESTS = [
    # (name, body source, expected finding count)
    ("balanced",
     "void f() { auto s = SD_SPAN_BEGIN(\"x\",0,0,0,0);"
     " SD_SPAN_END(s,1); }", 0),
    ("leaked-at-end",
     "void f() { auto s = SD_SPAN_BEGIN(\"x\",0,0,0,0); }", 1),
    ("early-return-leak",
     "int f(bool b) {\n"
     "  auto s = SD_SPAN_BEGIN(\"x\",0,0,0,0);\n"
     "  if (b) return -1;\n"
     "  SD_SPAN_END(s,1);\n"
     "  return 0;\n"
     "}", 1),
    ("early-return-clean",
     "int f(bool b) {\n"
     "  auto s = SD_SPAN_BEGIN(\"x\",0,0,0,0);\n"
     "  if (b) { SD_SPAN_END(s,1); return -1; }\n"
     "  SD_SPAN_END(s,1);\n"
     "  return 0;\n"
     "}", 0),
    ("branch-balanced-both-arms",
     "void f(bool b) {\n"
     "  auto s = SD_SPAN_BEGIN(\"x\",0,0,0,0);\n"
     "  if (b) { SD_SPAN_END(s,1); } else { SD_SPAN_END(s,2); }\n"
     "}", 0),  # the form the old linear rule mis-flagged
    ("if-no-else-leak",
     "void f(bool b) {\n"
     "  auto s = SD_SPAN_BEGIN(\"x\",0,0,0,0);\n"
     "  if (b) { SD_SPAN_END(s,1); }\n"
     "}", 1),
    ("end-without-begin",
     "void f() { SD_SPAN_END(0,1); }", 1),
    ("loop-balanced",
     "void f(int n) {\n"
     "  for (int i = 0; i < n; ++i) {\n"
     "    auto s = SD_SPAN_BEGIN(\"x\",0,0,0,0);\n"
     "    SD_SPAN_END(s,1);\n"
     "  }\n"
     "}", 0),
    ("loop-leak",
     "void f(int n) {\n"
     "  for (int i = 0; i < n; ++i) {\n"
     "    auto s = SD_SPAN_BEGIN(\"x\",0,0,0,0);\n"
     "    if (i == 3) continue;\n"
     "    SD_SPAN_END(s,1);\n"
     "  }\n"
     "}", 1),
    ("throw-leak",
     "void f(bool b) {\n"
     "  auto s = SD_SPAN_BEGIN(\"x\",0,0,0,0);\n"
     "  if (b) throw 1;\n"
     "  SD_SPAN_END(s,1);\n"
     "}", 1),
    ("switch-per-case-balanced",
     "void f(int k) {\n"
     "  auto s = SD_SPAN_BEGIN(\"x\",0,0,0,0);\n"
     "  switch (k) {\n"
     "    case 0: SD_SPAN_END(s,1); break;\n"
     "    default: SD_SPAN_END(s,2); break;\n"
     "  }\n"
     "}", 1),  # no-case-taken path leaks (no default coverage proof)
    ("two-functions-independent",
     "void f() { auto s = SD_SPAN_BEGIN(\"x\",0,0,0,0);"
     " SD_SPAN_END(s,1); }\n"
     "void g() { SD_SPAN_END(0,1); }", 1),
    ("raw-api-ignored",
     "void f() { span_ = tracer().beginSpan(\"x\",0,0,0,0); }", 0),
    ("macro-def-ignored",
     "#define SD_SPAN_BEGIN(k,s,d,b,n) x\nint f() { return 0; }", 0),
    ("nested-scope-balanced",
     "void f(bool b) {\n"
     "  auto s = SD_SPAN_BEGIN(\"x\",0,0,0,0);\n"
     "  { int y = 0; (void)y; }\n"
     "  SD_SPAN_END(s,1);\n"
     "}", 0),
    ("digit-separator-is-code",
     "void f() {\n"
     "  auto s = SD_SPAN_BEGIN(\"x\",0,0,0,0);\n"
     "  wait(100'000);\n"
     "  SD_SPAN_END(s,1);\n"
     "}", 0),  # a `'` opening a char literal would blank the END
    ("multiple-spans-one-leak",
     "void f() {\n"
     "  auto a = SD_SPAN_BEGIN(\"x\",0,0,0,0);\n"
     "  auto b = SD_SPAN_BEGIN(\"y\",0,0,0,0);\n"
     "  SD_SPAN_END(a,1);\n"
     "}", 1),
]


TEXT_SELF_TESTS = [
    # (name, source, suffix, expected rule names). A "/" in the name
    # makes it the file's path, so path-keyed rules see a module.
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
    # Span balance is span-flow's job; no text rule reports it.
    ("span-now-sdcheck",
     "void f() { auto s = SD_SPAN_BEGIN(\"x\",0,0,0,0); }", ".cc", []),
    ("iostream-header",
     "#ifndef SD_A_H\n#define SD_A_H\n#include <iostream>\n#endif", ".h",
     ["iostream"]),
    ("iostream-impl", "#include <iostream>\nint x;", ".cc", []),
    # The register map is mmio-map's job; no text rule reports it.
    ("mmio-now-sdcheck",
     "#ifndef SD_C_H\n#define SD_C_H\n"
     "enum class MmioReg : unsigned { kA = 0x00, kB = 0x44, kC = 0x3 };\n"
     "#endif", ".h", []),
    ("guard-missing", "int x;", ".h", ["guards"]),
    # recoverable-assert
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
    # queue-bypass
    ("compcpy/rogue_caller", "void f() { engine.startOp(p, s, cb); }",
     ".cc", ["queue-bypass"]),
    ("compcpy/queue", "void f() { engine_.startOp(p, s, cb); }", ".cc",
     []),  # the queue is the blessed dispatcher
    ("compcpy/compcpy", "void f() { startOp(p, s, cb); }", ".cc",
     []),  # the engine's own sync facade
    ("smartdimm/rogue2", "// startOp() is off limits\nint x;", ".cc",
     []),  # comments don't count
    # wakeup-bypass
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
    ("mem/rogue_guarded",
     "void f() { events_.schedule(t, [this, e] {\n"
     "  if (e != epoch_) return;\n  schedulePass(); }); }",
     ".cc", ["wakeup-bypass"]),  # a `;` in the lambda hides nothing
    ("mem/ok_request", "void f() { requestPass(clock_.nextEdge(now)); }",
     ".cc", []),  # the blessed entry point
    ("mem/comment_only", "// events_.schedule(t, schedulePass) is banned\n",
     ".cc", []),  # comments don't count
    # topology-construction
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


def run_fixture(root: pathlib.Path, rule: str) -> list:
    """Run exactly one rule family over a fixture tree."""
    findings = []
    if rule == "span-flow":
        for path in sorted((root / "src").rglob("*")):
            if path.suffix in SRC_EXTS and path.is_file():
                clean = strip_comments_and_strings(path.read_text())
                check_span_flow(path.relative_to(root).as_posix(),
                                clean, extract_functions_regex, findings)
    elif rule == "fault-coverage":
        check_fault_coverage(root, findings)
    elif rule == "stat-registry":
        check_stat_registry(root, findings)
    elif rule == "mmio-map":
        check_mmio_map(root, findings)
    elif rule == "addr-arith":
        audited = tuple(
            p.relative_to(root).as_posix()
            for p in sorted((root / "src").rglob("*"))
            if p.suffix in SRC_EXTS and p.is_file())
        check_addr_arith(root, findings, audited=audited)
    else:
        raise ValueError(f"unknown fixture rule {rule}")
    return findings


def self_test(repo_root: pathlib.Path) -> int:
    failures = 0

    # 1. Embedded span-flow corpus.
    for name, source, expected in SPAN_SELF_TESTS:
        findings = []
        clean = strip_comments_and_strings(source)
        check_span_flow(f"<self-test:{name}>", clean,
                        extract_functions_regex, findings)
        got = len(findings)
        if got != expected:
            failures += 1
            print(f"FAIL span-flow/{name}: expected {expected} "
                  f"finding(s), got {got}")
            for f in findings:
                print(f"    {f}")
        else:
            print(f"ok   span-flow/{name}")

    # 2. Embedded text-rule corpus.
    for name, source, suffix, expected in TEXT_SELF_TESTS:
        rel = name + suffix if "/" in name else \
            f"<self-test:{name}>{suffix}"
        findings = check_text(rel, source,
                              strip_comments_and_strings(source))
        got = sorted(f.rule for f in findings)
        if got != sorted(expected):
            failures += 1
            print(f"FAIL text/{name}: expected {sorted(expected)}, "
                  f"got {got}")
            for f in findings:
                print(f"    {f}")
        else:
            print(f"ok   text/{name}")

    # 3. On-disk fixtures: tests/tools/fixtures/<rule>/{good,bad}*/ —
    # good trees must be clean, bad trees must raise >= 1 finding of
    # their rule. Each rule has at least one of each.
    fixtures = repo_root / "tests" / "tools" / "fixtures"
    if fixtures.is_dir():
        for rule_dir in sorted(fixtures.iterdir()):
            if not rule_dir.is_dir():
                continue
            rule = rule_dir.name.replace("_", "-")
            trees = [t for t in sorted(rule_dir.iterdir()) if t.is_dir()]
            for kind in ("good", "bad"):
                if not any(t.name.startswith(kind) for t in trees):
                    failures += 1
                    print(f"FAIL fixture {rule}/{kind}: missing tree")
            for tree in trees:
                good = tree.name.startswith("good")
                findings = run_fixture(tree, rule)
                rule_findings = [f for f in findings if f.rule == rule]
                if good != bool(rule_findings):
                    print(f"ok   fixture {rule}/{tree.name} "
                          f"({len(rule_findings)} finding(s))")
                else:
                    failures += 1
                    print(f"FAIL fixture {rule}/{tree.name}: "
                          f"{len(rule_findings)} {rule} finding(s)")
                    for f in findings:
                        print(f"    {f}")
    else:
        failures += 1
        print(f"FAIL fixtures directory missing: {fixtures}")

    # 4. Baseline mechanics.
    fs = [Finding("r", "f.cc", 1, "ctx", "m"),
          Finding("r", "f.cc", 2, "ctx", "m"),
          Finding("r2", "g.cc", 3, "other", "m")]
    unb, stale = apply_baseline(fs, [("r", "f.cc", "ctx")])
    if len(unb) == 2 and not stale:
        print("ok   baseline/count-budget")
    else:
        failures += 1
        print(f"FAIL baseline/count-budget: {len(unb)} unbaselined, "
              f"{len(stale)} stale")
    unb, stale = apply_baseline([], [("r", "f.cc", "ctx")])
    if not unb and len(stale) == 1:
        print("ok   baseline/stale-entry")
    else:
        failures += 1
        print("FAIL baseline/stale-entry")

    if failures:
        print(f"sdcheck --self-test: {failures} failure(s)",
              file=sys.stderr)
        return 1
    print("sdcheck --self-test: all cases pass")
    return 0


# --------------------------------------------------------------------------
# main
# --------------------------------------------------------------------------


def main() -> int:
    repo = pathlib.Path(__file__).resolve().parent.parent
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", type=pathlib.Path, default=repo,
                        help="repository root")
    parser.add_argument("--build", type=pathlib.Path, default=None,
                        help="build dir holding compile_commands.json "
                             "(default: ROOT/build)")
    parser.add_argument("--baseline", type=pathlib.Path, default=None,
                        help="baseline JSON (default: "
                             "tools/sdcheck_baseline.json)")
    parser.add_argument("--json", type=pathlib.Path, default=None,
                        help="write findings JSON to this path")
    parser.add_argument("--regex-only", action="store_true",
                        help="skip libclang even when installed")
    parser.add_argument("--update-baseline", action="store_true",
                        help="adopt current findings as the baseline")
    parser.add_argument("--self-test", action="store_true",
                        help="run the analyzer's own corpus + fixtures")
    args = parser.parse_args()

    if args.self_test:
        return self_test(args.root)

    root = args.root.resolve()
    build = (args.build or root / "build").resolve()
    baseline_path = args.baseline or root / "tools" / \
        "sdcheck_baseline.json"

    findings, backend, fault_summary = run_analysis(
        root, build, args.regex_only)
    print(f"sdcheck: backend={backend}, {len(findings)} raw finding(s)")

    covered = fault_summary.get("covered", 0)
    total = len(fault_summary.get("sites", []))
    print(f"sdcheck: fault-site coverage {covered}/{total} sites have "
          "injection + stats + test")

    if args.json:
        args.json.write_text(json.dumps({
            "backend": backend,
            "fault_coverage": fault_summary,
            "findings": [f.as_json() for f in findings],
        }, indent=2) + "\n")

    if args.update_baseline:
        write_baseline(findings, baseline_path)
        print(f"sdcheck: baseline written to {baseline_path} "
              f"({len(findings)} entries)")
        return 0

    baseline = load_baseline(baseline_path)
    unbaselined, stale = apply_baseline(findings, baseline)
    for key in stale:
        print(f"sdcheck: stale baseline entry {key} (fixed? run "
              "--update-baseline)")
    for f in unbaselined:
        print(f"{f.file}:{f.line}: [{f.rule}] {f.msg}")
    if unbaselined:
        print(f"sdcheck: {len(unbaselined)} unbaselined finding(s)",
              file=sys.stderr)
        return 1
    print("sdcheck: clean (no unbaselined findings)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
