#!/usr/bin/env python3
"""sstlint — the soft-state simulator's determinism and concurrency analyzer.

The simulator's headline guarantee is bit-identical replication output for a
given seed and any shard count (DESIGN.md, "Determinism"). General-purpose
linters cannot see the project-specific ways that guarantee gets broken, so
this pass encodes them. One frontend (comment/string stripping, brace-matched
function and loop extents, a name-resolved call graph) serves two families.

Line rules match single lines:

  unordered-iter   iteration over a std::unordered_{map,set} member: visit
                   order follows the hash table's bucket layout, which varies
                   with libstdc++ version, insertion history, and pointer
                   values. Anything ordering-sensitive (scheduling, wire
                   output, callback fan-out) must iterate a sorted snapshot.
                   A braceless loop that only collects into a local container
                   (the sorted-snapshot idiom) stays quiet.
  ptr-key          pointer-typed keys in ordered/hashed containers (or
                   std::hash/std::less over pointers): pointer values differ
                   run to run under ASLR, so any iteration order or hash
                   layout derived from them is non-reproducible.
  wall-clock       wall/monotonic clock reads inside src/: simulation code
                   must take time from sim::Simulator::now(), never the host
                   (bench/ and examples/ are exempt).
  raw-rand         rand()/srand()/drand48()/std::random_device: unseeded or
                   process-global entropy. All randomness flows through
                   sim::Rng streams forked from the experiment seed.
  float-accum      bare `x += ...` running sums on float/double state in
                   src/stats/: naive accumulation drifts with summation
                   order and magnitude spread; use the Welford/compensated
                   forms (sst::stats) instead.
  rng-seed         sim::Rng constructed without a caller-chosen seed
                   (`Rng()`, `Rng r;`, or a `= Rng(0)` default argument):
                   hides the stream identity from the experiment seed plan,
                   so two components silently share draws.
  corrupt-include  #include of check/corrupt.hpp outside tests/: the
                   invariant Corrupter deliberately breaks data structures
                   and must never link into the simulator proper.
  shard-capture    a lambda handed to sim::ShardCrew capturing `&` or
                   `this`: everything it can reach becomes shared mutable
                   state visible from K shard worker threads at once. Each
                   such capture is an audited decision citing the barrier
                   argument.

Structural rules reason over function bodies, the call graph, the capability
annotations from src/check/annotate.hpp, and loop/lambda extents:

  root-reach    functions reachable from ShardCrew worker entry points (the
                crew lambda, and anything annotated SST_REQUIRES_SHARD
                without SST_REQUIRES_ROOT) must not touch SST_ROOT_ONLY
                state. The fault path's SST_REQUIRES_COORDINATOR pair reads
                as root AND shard at once (every worker is parked between
                barriers), so a coordinator hook is never a worker entry —
                and worker-reachable code CALLING one is itself a finding.
  ref-capture   lambdas scheduled into the event machinery (Simulator::at/
                after, EventQueue::schedule, Timer::arm) must not capture
                locals by reference: the lambda outlives the scope, so the
                capture dangles. `this` and by-value captures are fine.
  iter-taint    iteration over a std::unordered_{map,set} member whose loop
                body REACHES an ordered sink (event scheduling, wire
                encoding, digest update, channel send) through the call
                graph.
  rng-reseed    a literal-seeded sim::Rng temporary (`Rng(3)` passed as an
                argument or assigned): a nameless stream invisible to the
                experiment seed plan. Name the root (`sim::Rng root(3);`)
                and fork() children from it.
  fence-read    a function that touches SST_EPOCH_SHARED state without
                declaring SST_REQUIRES_FENCE[_SHARED] or asserting the
                epoch fence: the barrier-published epoch inputs may only be
                read inside a fence-scoped region.

Engines: the default `builtin` frontend is dependency-free, so the rules run
on every toolchain in CI. `--engine=libclang` swaps in clang.cindex for
AST-exact function extents, and skips with exit 77 when it is not
installed; `auto` uses libclang when importable.

Suppression: append `// sstlint: allow(<rule>)` (comma-separate several
rules) to the offending line, with a justification in the surrounding
comment. Every suppression must also be recorded in
tools/sstlint_allowlist.txt; `--audit` fails when the recorded and observed
sets drift, so suppressions stay a reviewed, committed decision. An allow()
that suppresses nothing on its own line, or names no rule, is a finding.

Exit codes: 0 clean, 1 findings/drift/self-test failure, 2 usage error or
malformed compile_commands, 77 forced engine unavailable.

Usage:
  tools/sstlint.py [--repo DIR]               analyze src/, bench/, examples/
  tools/sstlint.py --compile-commands DB.json restrict .cpp TUs to the build's
  tools/sstlint.py --audit                    diff suppressions vs allowlist
  tools/sstlint.py --list-suppressions        print observed allowlist lines
  tools/sstlint.py --stats                    per-rule hit/suppression counts
  tools/sstlint.py --self-test                run the rules on the fixtures
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import re
import sys

SCAN_DIRS = ("src", "bench", "examples")
EXTS = (".hpp", ".cpp")
ALLOWLIST = os.path.join("tools", "sstlint_allowlist.txt")
FIXTURE_DIR = os.path.join("tools", "lint_fixtures")

LINE_RULES = (
    "unordered-iter",
    "ptr-key",
    "wall-clock",
    "raw-rand",
    "float-accum",
    "rng-seed",
    "corrupt-include",
    "shard-capture",
)
STRUCTURAL_RULES = (
    "root-reach",
    "ref-capture",
    "iter-taint",
    "rng-reseed",
    "fence-read",
)
RULES = LINE_RULES + STRUCTURAL_RULES

Finding = collections.namedtuple("Finding", "path line rule message")

ALLOW_RE = re.compile(r"//\s*sstlint:\s*allow\(([a-z\-,\s]+)\)")

# ------------------------------------------------------ line-rule patterns

UNORDERED_DECL_RE = re.compile(
    r"\bstd::unordered_(?:map|set)\s*<[^;]*>\s+(\w+)\s*[;{=]"
)
FLOAT_DECL_RE = re.compile(r"\b(?:double|float)\s+(\w+)\s*(?:=[^;,()]*)?[;,]")

PTR_KEY_RE = re.compile(
    r"\bstd::(?:unordered_)?(?:map|set)\s*<\s*(?:const\s+)?[\w:]+\s*\*"
    r"|\bstd::(?:hash|less|greater)\s*<\s*(?:const\s+)?[\w:]+\s*\*"
)
WALL_CLOCK_RE = re.compile(
    r"\bstd::chrono::(?:system_clock|steady_clock|high_resolution_clock)\b"
    r"|\bgettimeofday\s*\(|\bclock_gettime\s*\("
    r"|\btime\s*\(\s*(?:nullptr|NULL|0)\s*\)"
)
RAW_RAND_RE = re.compile(
    r"\bstd::random_device\b|\brandom_device\b"
    r"|(?<!\w)s?rand\s*\(|\b[dlm]rand48\s*\("
)
# Rng's constructor deliberately has no default seed, so `Rng r;` is already
# a compile error; the lint catches what still compiles — an explicit empty
# ctor call and the `= Rng(0)` magic-zero default-argument idiom.
RNG_SEED_RE = re.compile(
    r"\bRng\s*\(\s*\)"
    r"|=\s*(?:sim::)?Rng\s*\(\s*0\s*\)"
)
# Anchored and matched against the RAW line: the path is a string literal,
# which strip_code blanks out of the code view.
CORRUPT_INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"check/corrupt\.hpp"')

# ShardCrew wiring sites: the construction (or the crew's own ctor) opens a
# short window in which any by-reference/this lambda capture is the worker
# entry point — the exact place shared mutable state leaks onto K threads.
SHARD_CREW_RE = re.compile(r"\bShardCrew\b")
SHARD_CAPTURE_RE = re.compile(r"\[\s*(?:&|this\b)")
SHARD_CREW_WINDOW = 12  # lines: construction + init-list + thread spawn loop

# The sorted-snapshot collect idiom: a braceless range-for whose single body
# statement only appends the key to a local container, which the caller then
# sorts before anything order-sensitive happens. The hash order never
# escapes, so flagging it only breeds allow() noise. (iter-taint covers the
# deeper cases: it follows the loop body's call closure and fires only when
# an ordered sink is actually reachable.)
SNAPSHOT_COLLECT_RE = re.compile(
    r"\w+\s*\.\s*(?:push_back|emplace_back)\s*\([^;{}]*\)\s*;?"
)

# ------------------------------------------------ structural-rule patterns

KEYWORDS = frozenset((
    "if", "for", "while", "switch", "catch", "return", "sizeof", "alignof",
    "decltype", "static_assert", "new", "delete", "do", "else", "case",
    "throw", "noexcept", "alignas", "assert", "defined",
))

# Annotated member declarations: `Type name SST_ROOT_ONLY ...;` — the macro
# follows the declarator (Abseil placement), so the identifier right before
# it is the member.
ROOT_ONLY_RE = re.compile(r"\b(\w+)\s+SST_ROOT_ONLY\b")
EPOCH_SHARED_RE = re.compile(r"\b(\w+)\s+SST_EPOCH_SHARED\b")

# Member declarations with a resolvable class type, for receiver-typed call
# resolution (`sh.data.send(` -> Channel::send, not every send in the repo).
MEMBER_TYPE_RE = re.compile(
    r"^\s*(?:mutable\s+)?(?:std::unique_ptr<\s*)?"
    r"([A-Za-z_][\w]*(?:::[A-Za-z_][\w]*)*)\s*(?:<[^;<>()]*>)?\s*>?\s*[*&]?\s+"
    r"(\w+)\s*(?:SST_[A-Z_]+(?:\([^()]*\))?\s*)*(?:=[^;]*)?[;{]"
)

RNG_RESEED_RE = re.compile(r"\b(?:sim::)?Rng\s*\(\s*\d+\s*\)")

SINK_NAMES = ("at", "after", "schedule", "arm")
SINK_CALL_RE = re.compile(r"(?:\.|->)\s*(?:%s)\s*\(" % "|".join(SINK_NAMES))

ORDERED_SINK_RE = re.compile(
    r"(?:\.|->)\s*(?:at|after|schedule|arm|update|send|encode\w*)\s*\("
    r"|\bschedule\s*\(|\bdigest\s*\(|\btransmit_?\s*\(|\bemit\s*\("
)

FUNC_HEAD_RE = re.compile(
    r"(?P<name>~?[A-Za-z_]\w*(?:\s*::\s*~?[A-Za-z_]\w*)*)\s*"
    r"\((?P<args>[^;{}()]*(?:\([^()]*\)[^;{}()]*)*)\)"
    r"(?P<trail>[^;{}]*?)\{"
)

CLASS_HEAD_RE = re.compile(
    r"\b(?:class|struct)\s+(?:SST_CAPABILITY\s*\([^)]*\)\s*)?"
    r"([A-Za-z_]\w*)[^;{]*\{"
)

# A REQUIRES-annotated declaration (class body, no definition): the macro
# lives on the first declaration only, so rule checks must read it here.
DECL_REQ_RE = re.compile(
    r"\b(\w+)\s*\(((?:[^;{}()]|\([^()]*\))*)\)\s*"
    r"((?:const|noexcept|override|final|\s)*"
    r"(?:SST_REQUIRES\w*(?:\s*\((?:[^()]|\([^()]*\))*\))?\s*)+)\s*;"
)

CALL_RE = re.compile(r"(?:(\w+)\s*(\.|->)\s*)?([A-Za-z_]\w*)\s*\(")

LAMBDA_INTRO_RE = re.compile(r"\[([^\[\]]*)\]\s*(?=[({]|mutable\b)")

# Role tokens: the REQUIRES macros, and (on definitions only) the capability
# objects named in an explicit SST_REQUIRES(...) list.
MACRO_ROLES = (("SST_REQUIRES_ROOT", "root"), ("SST_REQUIRES_SHARD", "shard"),
               ("SST_REQUIRES_FENCE", "fence"),
               ("SST_REQUIRES_ENGINE", "engine"))
CAPABILITY_ROLES = (("root_role", "root"), ("shard_role", "shard"),
                    ("epoch_fence", "fence"), ("engine_role", "engine"))


def roles_in(text, tokens):
    """Roles an annotation text requires. The coordinator pair is both
    domains at once (annotate.hpp): the fault hooks run between barriers,
    where the root executor also owns every parked shard. It is tracked as a
    third token so root-reach can flag worker-side CALLS of a hook, not just
    member touches."""
    req = {role for token, role in tokens if token in text}
    if "SST_REQUIRES_COORDINATOR" in text:
        req.update(("root", "shard", "coordinator"))
    return req


# ---------------------------------------------------------------- frontend

def strip_code(text):
    """Blanks comments and string/char literal contents, keeping line
    structure so findings carry real line numbers."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line | block | str | chr
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line"
                i += 2
            elif c == "/" and nxt == "*":
                state = "block"
                i += 2
            elif c == '"':
                state = "str"
                out.append(c)
                i += 1
            elif c == "'":
                state = "chr"
                out.append(c)
                i += 1
            else:
                out.append(c)
                i += 1
        elif state in ("line", "block"):
            if state == "line" and c == "\n":
                state = "code"
            elif state == "block" and c == "*" and nxt == "/":
                state = "code"
                i += 1
            if c == "\n":
                out.append(c)
            i += 1
        else:  # str | chr
            quote = '"' if state == "str" else "'"
            if c == "\\":
                i += 2
                continue
            if c == quote:
                state = "code"
                out.append(c)
            elif c == "\n":
                out.append(c)
            i += 1
    return "".join(out)


def tu_key(relpath):
    """Translation-unit scope: (directory, basename-without-extension), so a
    .cpp sees the members its own header declares and nothing from
    same-named files elsewhere (core/receiver.hpp vs sstp/receiver.hpp)."""
    d, base = os.path.split(relpath)
    return d, os.path.splitext(base)[0]


def in_src(relpath):
    return relpath.startswith("src" + os.sep)


def in_stats(relpath):
    return relpath.startswith(os.path.join("src", "stats") + os.sep)


def match_brace(text, open_pos):
    """Index one past the `}` matching the `{` at open_pos, or len(text)."""
    depth = 0
    for i in range(open_pos, len(text)):
        c = text[i]
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth == 0:
                return i + 1
    return len(text)


class FunctionDef:
    """One function (or constructor) definition with its body extent."""

    def __init__(self, name, relpath, head_line, body, body_line, trail,
                 cls=None):
        self.name = name              # unqualified
        self.relpath = relpath
        self.head_line = head_line    # 1-based line of the header
        self.body = body              # stripped body text (between braces)
        self.body_line = body_line    # 1-based line the body starts on
        self.trail = trail            # text between `)` and `{` (annotations)
        self.cls = cls                # enclosing/qualifying class, if known

    def requires(self):
        return roles_in(self.trail, MACRO_ROLES + CAPABILITY_ROLES)

    def body_line_of(self, pattern):
        """1-based file line of the first body line matching `pattern`."""
        for off, line in enumerate(self.body.splitlines()):
            if pattern.search(line):
                return self.body_line + off
        return self.head_line


class Source:
    def __init__(self, relpath, text):
        self.relpath = relpath
        self.raw_lines = text.splitlines()
        self.code = strip_code(text)
        self.code_lines = self.code.splitlines()
        # Allowed rules per 1-based line number, from the RAW text (the
        # directive lives in a comment, which strip_code removes).
        self.allows = {}
        for num, raw in enumerate(self.raw_lines, 1):
            m = ALLOW_RE.search(raw)
            if m:
                rules = {r.strip() for r in m.group(1).split(",") if r.strip()}
                self.allows[num] = rules
        self._line_starts = [0]
        for line in self.code.splitlines(keepends=True):
            self._line_starts.append(self._line_starts[-1] + len(line))

    def line_at(self, pos):
        """1-based line containing character offset `pos` of the code."""
        lo, hi = 0, len(self._line_starts) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self._line_starts[mid] <= pos:
                lo = mid
            else:
                hi = mid - 1
        return lo + 1

    def class_spans(self):
        """[(class name, start, end)] built from brace-matched heads."""
        spans = []
        for m in CLASS_HEAD_RE.finditer(self.code):
            open_pos = m.end() - 1
            spans.append((m.group(1), open_pos, match_brace(self.code,
                                                           open_pos)))
        return spans

    def functions(self):
        """Builtin frontend: function definitions via brace matching. The
        libclang engine replaces this method's output with AST extents."""
        spans = self.class_spans()
        defs = []
        pos = 0
        while True:
            m = FUNC_HEAD_RE.search(self.code, pos)
            if not m:
                break
            open_pos = m.end() - 1
            name = m.group("name").replace(" ", "").split("::")[-1]
            if name in KEYWORDS or name.startswith("SST_"):
                pos = m.start() + 1
                continue
            end = match_brace(self.code, open_pos)
            qualified = m.group("name").replace(" ", "")
            cls = qualified.split("::")[-2] if "::" in qualified else None
            if cls is None:
                for cname, cstart, cend in spans:
                    if cstart < m.start() < cend:
                        cls = cname  # innermost wins via later overwrite
            defs.append(FunctionDef(
                name=name,
                relpath=self.relpath,
                head_line=self.line_at(m.start()),
                body=self.code[open_pos + 1:end - 1],
                body_line=self.line_at(open_pos),
                trail=m.group("trail"),
                cls=cls,
            ))
            pos = end
        return defs


class Program:
    """Whole-tree view: sources, function defs, annotated and typed members
    per translation unit, and the call graph."""

    def __init__(self, sources, engine="builtin"):
        self.sources = sources
        self.by_path = {s.relpath: s for s in sources}
        self.defs = []
        for src in sources:
            self.defs.extend(extract_functions(src, engine))
        self.defs_by_name = collections.defaultdict(list)
        for d in self.defs:
            self.defs_by_name[d.name].append(d)

        self.root_only = collections.defaultdict(set)
        self.epoch_shared = collections.defaultdict(set)
        self.unordered = collections.defaultdict(set)
        self.floats = collections.defaultdict(set)  # src/stats/ only
        self.member_types = collections.defaultdict(dict)
        # REQUIRES annotations live on the in-class DECLARATION; merge them
        # into a per-name record so out-of-class definitions inherit them.
        self.decl_requires = collections.defaultdict(set)
        for src in sources:
            key = tu_key(src.relpath)
            stats = in_stats(src.relpath)
            for line in src.code_lines:
                for m in ROOT_ONLY_RE.finditer(line):
                    self.root_only[key].add(m.group(1))
                for m in EPOCH_SHARED_RE.finditer(line):
                    self.epoch_shared[key].add(m.group(1))
                for m in UNORDERED_DECL_RE.finditer(line):
                    self.unordered[key].add(m.group(1))
                if stats:
                    for m in FLOAT_DECL_RE.finditer(line):
                        self.floats[key].add(m.group(1))
                m = MEMBER_TYPE_RE.match(line)
                if m and m.group(1) not in ("return", "delete", "using"):
                    cls = m.group(1).split("::")[-1]
                    self.member_types[key][m.group(2)] = cls
            for m in DECL_REQ_RE.finditer(src.code):
                req = roles_in(m.group(3), MACRO_ROLES)
                if req:
                    self.decl_requires[m.group(1)] |= req

    def requires_of(self, fdef):
        return fdef.requires() | self.decl_requires.get(fdef.name, set())

    def callees(self, body, key):
        """Called defs from `body`, receiver-typed where a member-type hint
        resolves the class, name-union otherwise."""
        out = []
        for m in CALL_RE.finditer(body):
            recv, _op, name = m.group(1), m.group(2), m.group(3)
            if name in KEYWORDS or name.startswith("SST_"):
                continue
            cands = self.defs_by_name.get(name, ())
            if not cands:
                continue
            if recv is not None:
                cls = self.member_types[key].get(recv)
                if cls is not None:
                    # The receiver's class is known: resolve strictly within
                    # it. Zero matches means a library-type method (e.g.
                    # `heap_.at(i)` on a std::vector) — DON'T fall back to the
                    # name union, or vector::at would alias Simulator::at and
                    # drag the whole event machinery into every closure.
                    out.extend(d for d in cands if d.cls == cls)
                    continue
            # Unqualified name union: prefer defs in the caller's own TU
            # (header + source pair), else fall back to library (src/) defs.
            # bench/ and examples/ are leaf programs — library code never
            # calls into them, so a free `report()` helper in an example must
            # not alias check::report for the whole closure.
            local = [d for d in cands if tu_key(d.relpath) == key]
            if local:
                out.extend(local)
            else:
                out.extend(d for d in cands if d.relpath.startswith("src/"))
        return out

    def closure(self, seed_defs):
        """Transitive callee closure over the name-resolved call graph."""
        seen = set()
        work = list(seed_defs)
        result = []
        while work:
            d = work.pop()
            ident = id(d)
            if ident in seen:
                continue
            seen.add(ident)
            result.append(d)
            work.extend(self.callees(d.body, tu_key(d.relpath)))
        return result


def extract_functions(src, engine):
    if engine == "libclang":
        try:
            return libclang_functions(src)
        except Exception:  # any parse hiccup: fall back, never lose coverage
            return src.functions()
    return src.functions()


def libclang_functions(src):
    """AST-exact function extents via clang.cindex. Only reached when the
    caller verified the import (see resolve_engine); the rules themselves
    are engine-independent."""
    import clang.cindex as ci  # noqa: import guarded by resolve_engine

    index = ci.Index.create()
    tu = index.parse(src.relpath, args=["-std=c++20"],
                     unsaved_files=[(src.relpath, "\n".join(src.raw_lines))],
                     options=ci.TranslationUnit.PARSE_INCOMPLETE)
    defs = []

    def visit(cursor, cls):
        for child in cursor.get_children():
            kind = child.kind.name
            if kind in ("CLASS_DECL", "STRUCT_DECL", "CLASS_TEMPLATE"):
                visit(child, child.spelling or cls)
                continue
            if kind in ("CXX_METHOD", "FUNCTION_DECL", "CONSTRUCTOR",
                        "DESTRUCTOR", "FUNCTION_TEMPLATE") \
                    and child.is_definition():
                ext = child.extent
                lines = src.code_lines[ext.start.line - 1:ext.end.line]
                body = "\n".join(lines)
                brace = body.find("{")
                head, body = body[:brace], body[brace + 1:]
                parent = child.semantic_parent
                pcls = parent.spelling if parent and parent.kind.name in (
                    "CLASS_DECL", "STRUCT_DECL", "CLASS_TEMPLATE") else cls
                defs.append(FunctionDef(
                    name=child.spelling.split("::")[-1],
                    relpath=src.relpath,
                    head_line=ext.start.line,
                    body=body,
                    body_line=ext.start.line + head.count("\n"),
                    trail=head[head.rfind(")") + 1:] if ")" in head else "",
                    cls=pcls,
                ))
            visit(child, cls)

    visit(tu.cursor, None)
    return defs if defs else src.functions()


# -------------------------------------------------------------- line rules

def iter_patterns(name):
    """Regexes that detect iteration over member `name`."""
    return (
        re.compile(r"for\s*\([^;)]*:\s*(?:\w+(?:\.|->))?%s\b" % re.escape(name)),
        re.compile(r"\b%s\s*\.\s*c?begin\s*\(" % re.escape(name)),
    )


def for_body_tail(line):
    """Text after the range-for header's closing paren, or None."""
    m = re.search(r"\bfor\s*\(", line)
    if m is None:
        return None
    depth, i = 1, m.end()
    while i < len(line) and depth:
        if line[i] == "(":
            depth += 1
        elif line[i] == ")":
            depth -= 1
        i += 1
    return None if depth else line[i:]


def is_snapshot_collect(src, num, line):
    tail = for_body_tail(line)
    if tail is None:
        return False
    body = tail.strip()
    if not body:  # braceless body on the following line
        body = src.code_lines[num].strip() if num < len(src.code_lines) else ""
    return SNAPSHOT_COLLECT_RE.fullmatch(body) is not None


def rule_lines(prog, emit):
    """The eight line rules, in one pass over every source line."""
    for src in prog.sources:
        key = tu_key(src.relpath)
        unordered_pats = [
            (name, iter_patterns(name))
            for name in sorted(prog.unordered.get(key, ()))
        ]
        float_pats = [
            (name, re.compile(r"\b%s\s*\+=" % re.escape(name)))
            for name in sorted(prog.floats.get(key, ()))
        ]

        crew_window = 0
        for num, line in enumerate(src.code_lines, 1):
            if SHARD_CREW_RE.search(line):
                crew_window = SHARD_CREW_WINDOW
            if crew_window > 0 and SHARD_CAPTURE_RE.search(line):
                emit(src, num, "shard-capture",
                     "lambda capturing '&'/'this' reaches shard worker "
                     "threads; audit the shared state it exposes and record "
                     "the suppression")
                crew_window = 0  # one finding per wiring site
            elif crew_window > 0:
                crew_window -= 1
            for name, pats in unordered_pats:
                if any(p.search(line) for p in pats):
                    if not is_snapshot_collect(src, num, line):
                        emit(src, num, "unordered-iter",
                             "iteration over unordered member '%s' follows "
                             "hash layout; iterate a sorted snapshot" % name)
                    break
            if PTR_KEY_RE.search(line):
                emit(src, num, "ptr-key",
                     "pointer-keyed container/hasher: pointer values are not "
                     "reproducible across runs")
            if in_src(src.relpath) and WALL_CLOCK_RE.search(line):
                emit(src, num, "wall-clock",
                     "host clock read in simulation code; use "
                     "sim::Simulator::now()")
            if RAW_RAND_RE.search(line):
                emit(src, num, "raw-rand",
                     "process-global randomness; fork a sim::Rng stream from "
                     "the experiment seed")
            for name, pat in float_pats:
                if pat.search(line):
                    emit(src, num, "float-accum",
                         "bare running sum on float state '%s'; use the "
                         "Welford/compensated forms" % name)
                    break
            if RNG_SEED_RE.search(line):
                emit(src, num, "rng-seed",
                     "sim::Rng without a caller-chosen seed; thread the "
                     "stream from the experiment seed plan")
            if CORRUPT_INCLUDE_RE.search(src.raw_lines[num - 1]):
                emit(src, num, "corrupt-include",
                     "check/corrupt.hpp is test-only; it must not be "
                     "included from simulator code")


# -------------------------------------------------------- structural rules

def rule_root_reach(prog, emit):
    """Worker-reachable code must not touch SST_ROOT_ONLY state."""
    entries = []
    for d in prog.defs:
        req = prog.requires_of(d)
        if "shard" in req and "root" not in req:
            entries.append(d)
    # ShardCrew wiring sites: the crew lambda's calls are worker entries.
    for src in prog.sources:
        for m in re.finditer(r"\bShardCrew\b", src.code):
            window = src.code[m.end():m.end() + 600]
            lam = LAMBDA_INTRO_RE.search(window)
            if not lam:
                continue
            brace = window.find("{", lam.end())
            if brace < 0:
                continue
            body = window[brace + 1:match_brace(window, brace) - 1]
            entries.extend(prog.callees(body, tu_key(src.relpath)))

    reported = set()
    closure = prog.closure(entries)
    for d in closure:
        key = tu_key(d.relpath)
        members = prog.root_only.get(key, ())
        for member in sorted(members):
            pat = re.compile(r"\b%s\b" % re.escape(member))
            if not pat.search(d.body):
                continue
            line = d.body_line_of(pat)
            if (d.relpath, line, member) in reported:
                continue
            reported.add((d.relpath, line, member))
            emit(prog.by_path[d.relpath], line, "root-reach",
                 "'%s()' is reachable from shard-worker entry points but "
                 "touches SST_ROOT_ONLY member '%s'; root state must stay "
                 "on the coordinator side of the barrier" % (d.name, member))

    # Fault-path extension: a coordinator hook (SST_REQUIRES_COORDINATOR =
    # root AND shard, valid only while every worker is parked between
    # barriers) called from worker-reachable code is a protocol violation at
    # the CALL SITE — visible even when the hook's root-only members live in
    # a different translation unit than the caller.
    for d in closure:
        if "coordinator" in prog.requires_of(d):
            continue  # hook-to-hook calls stay inside the parked window
        for callee in prog.callees(d.body, tu_key(d.relpath)):
            if "coordinator" not in prog.requires_of(callee):
                continue
            pat = re.compile(r"\b%s\s*\(" % re.escape(callee.name))
            line = d.body_line_of(pat)
            if (d.relpath, line, callee.name) in reported:
                continue
            reported.add((d.relpath, line, callee.name))
            emit(prog.by_path[d.relpath], line, "root-reach",
                 "'%s()' is reachable from shard-worker entry points but "
                 "calls coordinator hook '%s()' (SST_REQUIRES_COORDINATOR); "
                 "fault hooks presume parked workers and may only run "
                 "between barriers" % (d.name, callee.name))


def rule_ref_capture(prog, emit):
    """No by-reference captures in lambdas handed to the event machinery."""
    for src in prog.sources:
        for m in SINK_CALL_RE.finditer(src.code):
            open_pos = src.code.find("(", m.start())
            depth = 0
            end = len(src.code)
            for i in range(open_pos, len(src.code)):
                c = src.code[i]
                if c in "({":
                    depth += 1
                elif c in ")}":
                    depth -= 1
                    if depth == 0:
                        end = i
                        break
            span = src.code[open_pos:end]
            for lam in LAMBDA_INTRO_RE.finditer(span):
                captures = [c.strip() for c in lam.group(1).split(",")
                            if c.strip()]
                bad = [c for c in captures
                       if c == "&" or (c.startswith("&") and
                                       not c.startswith("&&"))]
                if not bad:
                    continue
                line = src.line_at(open_pos + lam.start())
                emit(src, line, "ref-capture",
                     "lambda scheduled into the event machinery captures "
                     "%s by reference; the lambda outlives this scope — "
                     "capture by value (pointers to heap-pinned state are "
                     "fine)" % ", ".join("'%s'" % b for b in bad))


def rule_iter_taint(prog, emit):
    """Unordered iteration whose body reaches an ordered sink."""
    for src in prog.sources:
        key = tu_key(src.relpath)
        for member in sorted(prog.unordered.get(key, ())):
            loop_re = re.compile(
                r"for\s*\([^;)]*:\s*(?:\w+(?:\.|->))?%s\s*\)\s*"
                % re.escape(member))
            for m in loop_re.finditer(src.code):
                brace = src.code.find("{", m.end() - 1)
                semi = src.code.find(";", m.end() - 1)
                if brace >= 0 and (semi < 0 or brace < semi):
                    body = src.code[brace + 1:match_brace(src.code,
                                                          brace) - 1]
                else:  # single-statement loop body
                    body = src.code[m.end():semi if semi >= 0 else None]
                tainted = ORDERED_SINK_RE.search(body) is not None
                if not tainted:
                    seeds = prog.callees(body, key)
                    tainted = any(
                        ORDERED_SINK_RE.search(d.body)
                        for d in prog.closure(seeds))
                if tainted:
                    emit(src, src.line_at(m.start()), "iter-taint",
                         "iteration over unordered member '%s' reaches an "
                         "ordered sink (scheduling/encoding/digest/send); "
                         "iterate a sorted snapshot instead" % member)


def rule_rng_reseed(prog, emit):
    """No literal-seeded Rng temporaries; name the root stream."""
    for src in prog.sources:
        for num, line in enumerate(src.code_lines, 1):
            for m in RNG_RESEED_RE.finditer(line):
                emit(src, num, "rng-reseed",
                     "literal-seeded sim::Rng temporary '%s': the stream "
                     "has no name in the seed plan — declare a named root "
                     "(`sim::Rng root(N);`) and fork() children from it"
                     % m.group(0).strip())


def rule_fence_read(prog, emit):
    """SST_EPOCH_SHARED access only inside fence-scoped regions."""
    for d in prog.defs:
        members = prog.epoch_shared.get(tu_key(d.relpath), ())
        if not members:
            continue
        if "fence" in prog.requires_of(d):
            continue
        if "epoch_fence.assert_held" in d.body:
            continue  # asserted, with the justifying comment at the site
        for member in sorted(members):
            pat = re.compile(r"\b%s\b" % re.escape(member))
            if not pat.search(d.body):
                continue
            emit(prog.by_path[d.relpath], d.body_line_of(pat), "fence-read",
                 "'%s()' touches SST_EPOCH_SHARED member '%s' without "
                 "SST_REQUIRES_FENCE[_SHARED] or an epoch_fence assert; "
                 "barrier-published state is fence-scoped" % (d.name, member))


ALL_RULES = (
    rule_lines,
    rule_root_reach,
    rule_ref_capture,
    rule_iter_taint,
    rule_rng_reseed,
    rule_fence_read,
)


def scan(sources, engine="builtin"):
    """Runs every rule; returns (findings, suppressions, program) where
    suppressions maps (relpath, rule) -> count of allow() uses that fired."""
    prog = Program(sources, engine=engine)
    findings = []
    suppressions = collections.Counter()
    fired_lines = set()  # (relpath, line, rule) triples that suppressed

    def emit(src, num, rule, message):
        if rule in src.allows.get(num, ()):
            suppressions[(src.relpath, rule)] += 1
            fired_lines.add((src.relpath, num, rule))
        else:
            findings.append(Finding(src.relpath, num, rule, message))

    for rule in ALL_RULES:
        rule(prog, emit)

    # An allow() that never fired on its own line is stale: either the
    # violation was fixed (delete the directive) or the rule name is wrong.
    for src in sources:
        for num, rules in sorted(src.allows.items()):
            for rule in sorted(rules):
                if rule not in RULES:
                    findings.append(Finding(
                        src.relpath, num, "bad-suppression",
                        "allow(%s) names an unknown rule" % rule))
                elif (src.relpath, num, rule) not in fired_lines:
                    findings.append(Finding(
                        src.relpath, num, "bad-suppression",
                        "allow(%s) suppressed nothing on this line; remove "
                        "the stale directive" % rule))
    return findings, suppressions, prog


# ----------------------------------------------------------------- loading

def load_compile_commands(path):
    """TU set from a compile_commands.json; exits 2 with a readable message
    on malformed input (a silent empty DB would vacuously pass the gate)."""
    try:
        with open(path, encoding="utf-8") as f:
            db = json.load(f)
        if not isinstance(db, list):
            raise ValueError("top-level JSON value is not an array")
        files = []
        for entry in db:
            if not isinstance(entry, dict) or "file" not in entry:
                raise ValueError("entry without a 'file' field")
            files.append(entry["file"])
        return files
    except (OSError, ValueError) as exc:
        print("sstlint: malformed compile_commands at %s: %s" % (path, exc),
              file=sys.stderr)
        sys.exit(2)


def load_sources(repo, compile_commands=None):
    tu_files = None
    if compile_commands is not None:
        tu_files = {
            os.path.relpath(os.path.realpath(f), os.path.realpath(repo))
            for f in load_compile_commands(compile_commands)
        }
    sources = []
    for root in SCAN_DIRS:
        for dirpath, _dirnames, filenames in os.walk(os.path.join(repo, root)):
            for fn in sorted(filenames):
                if not fn.endswith(EXTS):
                    continue
                path = os.path.join(dirpath, fn)
                rel = os.path.relpath(path, repo)
                # The DB restricts .cpp TUs (flag parity with the build);
                # headers are always in scope — they hold the annotations.
                if (tu_files is not None and fn.endswith(".cpp")
                        and rel not in tu_files):
                    continue
                with open(path, encoding="utf-8") as f:
                    sources.append(Source(rel, f.read()))
    sources.sort(key=lambda s: s.relpath)
    return sources


def suppression_lines(suppressions):
    return [
        "%s\t%s\t%d" % (path, rule, count)
        for (path, rule), count in sorted(suppressions.items())
    ]


def audit(repo, suppressions):
    """Diffs observed suppressions against the committed allowlist."""
    path = os.path.join(repo, ALLOWLIST)
    committed = []
    if os.path.exists(path):
        with open(path, encoding="utf-8") as f:
            committed = [
                ln.rstrip("\n") for ln in f
                if ln.strip() and not ln.lstrip().startswith("#")
            ]
    observed = suppression_lines(suppressions)
    if committed == observed:
        return []
    problems = []
    for ln in sorted(set(observed) - set(committed)):
        problems.append("unrecorded suppression (add to %s): %s"
                        % (ALLOWLIST, ln.replace("\t", " ")))
    for ln in sorted(set(committed) - set(observed)):
        problems.append("stale allowlist entry (suppression gone): %s"
                        % ln.replace("\t", " "))
    if not problems:  # same set, wrong order — keep the file canonical
        problems.append("allowlist entries out of canonical sorted order")
    return problems


# --------------------------------------------------------------- self-test

ONCE_EACH_LINE_RULE = dict.fromkeys(LINE_RULES, 1)
ONCE_EACH_STRUCTURAL_RULE = dict.fromkeys(STRUCTURAL_RULES, 1)

# Every fixture is scanned alone, with all 13 rules, under a virtual path so
# the path-scoped rules (wall-clock, float-accum) and TU scoping behave as in
# the tree. Each entry pins the EXACT per-rule finding and suppression
# counts; every rule not named must stay at zero, so a rule that silently
# stops firing is caught even under its allow(). Some structural fixtures
# also trip a line rule (a ShardCrew `[this]` wiring is shard-capture, an
# unordered loop is unordered-iter); those hits are pinned, not filtered.
# Columns: fixture, virtual directory, findings, suppressions.
SELF_TEST_MATRIX = (
    ("known_bad.cpp", "src/stats", ONCE_EACH_LINE_RULE, {}),
    ("suppressed.cpp", "src/stats", {}, ONCE_EACH_LINE_RULE),
    # Compensated/assignment-form accumulators (the mean-field integrator
    # idiom) must NOT trip float-accum.
    ("compensated_ok.cpp", "src/stats", {}, {}),
    ("shard_capture_allowed.cpp", "src/sim", {}, {"shard-capture": 1}),
    ("snapshot_collect_ok.cpp", "src/core", {}, {}),
    ("root_reach_bad.cpp", "src/fixture",
     {"root-reach": 1, "shard-capture": 1}, {}),
    ("root_reach_ok.cpp", "src/fixture", {"shard-capture": 1}, {}),
    ("ref_capture_bad.cpp", "src/fixture", {"ref-capture": 1}, {}),
    ("ref_capture_ok.cpp", "src/fixture", {}, {}),
    ("iter_taint_bad.cpp", "src/fixture",
     {"iter-taint": 1, "unordered-iter": 1}, {}),
    ("iter_taint_ok.cpp", "src/fixture", {}, {}),
    ("rng_reseed_bad.cpp", "src/fixture", {"rng-reseed": 1}, {}),
    ("rng_reseed_ok.cpp", "src/fixture", {}, {}),
    # A live allow(rng-reseed) does not cover a stale one elsewhere in the
    # same file: staleness is judged per line.
    ("rng_reseed_stale.cpp", "src/fixture", {"bad-suppression": 1},
     {"rng-reseed": 1}),
    ("fence_read_bad.cpp", "src/fixture", {"fence-read": 1}, {}),
    ("fence_read_ok.cpp", "src/fixture", {}, {}),
    # SST_REQUIRES_COORDINATOR (the fault path): the pair must read as root
    # AND shard at once — half-recognition would turn every fault hook into
    # a worker entry (the ok fixture pins that), and a worker-side CALL of a
    # hook is a root-reach finding in its own right (the bad fixture: one
    # call-site finding + one member touch, plus fence-read proving the pair
    # does NOT grant the epoch fence).
    ("coordinator_bad.cpp", "src/fixture",
     {"root-reach": 2, "fence-read": 1, "shard-capture": 1}, {}),
    ("coordinator_ok.cpp", "src/fixture", {"shard-capture": 1}, {}),
    ("coordinator_suppressed.cpp", "src/fixture", {"shard-capture": 1},
     {"root-reach": 2, "fence-read": 1}),
    ("structural_suppressed.cpp", "src/fixture",
     {"shard-capture": 1, "unordered-iter": 1}, ONCE_EACH_STRUCTURAL_RULE),
)


def self_test(repo):
    failures = []
    for name, vdir, want_found, want_sup in SELF_TEST_MATRIX:
        with open(os.path.join(repo, FIXTURE_DIR, name),
                  encoding="utf-8") as f:
            src = Source(os.path.join(vdir, name), f.read())
        findings, suppressions, _prog = scan([src])
        found = collections.Counter(f.rule for f in findings)
        sup = collections.Counter(
            {rule: n for (_path, rule), n in suppressions.items()})
        for rule in sorted(set(RULES) | set(found) | {"bad-suppression"}):
            if found[rule] != want_found.get(rule, 0):
                failures.append("%s: rule %s fired %d time(s) (expected %d)"
                                % (name, rule, found[rule],
                                   want_found.get(rule, 0)))
            if sup[rule] != want_sup.get(rule, 0):
                failures.append(
                    "%s: rule %s suppressed %d time(s) (expected %d)"
                    % (name, rule, sup[rule], want_sup.get(rule, 0)))
    return failures


# -------------------------------------------------------------------- main

def resolve_engine(requested):
    """auto -> libclang when importable, else builtin. A FORCED libclang
    that cannot import is a skip (77): the environment, not the tree, is
    what's missing — ctest's SKIP_RETURN_CODE treats it accordingly."""
    if requested == "builtin":
        return "builtin"
    try:
        import clang.cindex  # noqa: F401
        return "libclang"
    except ImportError:
        if requested == "libclang":
            print("SKIP: clang.cindex (libclang) not importable; the "
                  "builtin engine covers these rules — install libclang "
                  "python bindings to force AST extents", file=sys.stderr)
            sys.exit(77)
        return "builtin"


def main(argv):
    ap = argparse.ArgumentParser(prog="sstlint", add_help=True)
    ap.add_argument("--repo", default=None,
                    help="repository root (default: parent of this script)")
    ap.add_argument("--compile-commands", default=None, metavar="DB",
                    help="compile_commands.json restricting the .cpp TU set")
    ap.add_argument("--engine", choices=("auto", "builtin", "libclang"),
                    default="auto",
                    help="frontend: builtin (pure python), libclang "
                         "(clang.cindex; skips 77 if missing), auto")
    ap.add_argument("--audit", action="store_true",
                    help="also fail if suppressions drift from the allowlist")
    ap.add_argument("--list-suppressions", action="store_true",
                    help="print observed allowlist lines and exit")
    ap.add_argument("--stats", action="store_true",
                    help="print per-rule finding/suppression counts")
    ap.add_argument("--self-test", action="store_true",
                    help="run the rules against tools/lint_fixtures/")
    args = ap.parse_args(argv)

    repo = args.repo or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    engine = resolve_engine(args.engine)

    if args.self_test:
        failures = self_test(repo)
        for f in failures:
            print("sstlint self-test: %s" % f, file=sys.stderr)
        print("sstlint self-test: %s"
              % ("FAIL" if failures else "ok (%d rules, %d fixtures)"
                 % (len(RULES), len(SELF_TEST_MATRIX))))
        return 1 if failures else 0

    sources = load_sources(repo, args.compile_commands)
    findings, suppressions, prog = scan(sources, engine=engine)

    if args.list_suppressions:
        for ln in suppression_lines(suppressions):
            print(ln)
        return 0

    if args.stats:
        hit = collections.Counter(f.rule for f in findings)
        sup = collections.Counter(rule for (_p, rule) in suppressions.elements())
        print("rule            findings  suppressions")
        for rule in list(RULES) + sorted(set(hit) - set(RULES)):
            print("%-15s %8d  %12d" % (rule, hit[rule], sup[rule]))

    for f in sorted(findings):
        print("%s:%d: [%s] %s" % (f.path, f.line, f.rule, f.message))

    problems = audit(repo, suppressions) if args.audit else []
    for p in problems:
        print("sstlint audit: %s" % p, file=sys.stderr)

    if findings or problems:
        print("sstlint: %d finding(s), %d audit problem(s)"
              % (len(findings), len(problems)), file=sys.stderr)
        return 1
    print("sstlint: clean (%d files, %d function defs, engine=%s, "
          "%d suppression(s) on allowlist)"
          % (len(sources), len(prog.defs), engine,
             sum(suppressions.values())))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
