#!/usr/bin/env python3
"""Project-specific lint checks for bytecache, registered as the `lint` ctest.

Rules (see DESIGN.md "Correctness tooling"):

  bc-rawseq     Raw relational comparison (<, <=, >, >=) on an identifier
                whose name contains "seq".  TCP sequence numbers wrap
                modulo 2^32, so ordinary comparison is wrong across the
                wrap; use util::seq_lt / seq_le / seq_gt / seq_ge from
                src/util/seqcmp.h (the only file exempt from this rule).
                Suppress a deliberate non-wrapping comparison with a
                `NOLINT(bc-rawseq)` comment on the line or the line above.

  bc-wirecast   `reinterpret_cast` involving a wire-header type
                (Ipv4Header, TcpHeader, UdpHeader, or any *Header type)
                outside src/packet/.  Wire parsing must go through the
                packet library's serialize/parse functions, which handle
                endianness and alignment.

  bc-include    Include hygiene: project headers are included with quotes
                using src/-relative paths ("util/seqcmp.h"); angle
                brackets are reserved for system/third-party headers; no
                relative ("../") includes; every header under src/ starts
                with #pragma once; a .cc file under src/ includes its own
                header first.

  bc-hotpath    `std::function` or `std::deque` in a header under
                src/rabin/ or src/cache/.  Those layers are the
                per-packet, per-byte data plane: std::function costs a
                type-erased indirect call (and possibly an allocation) at
                every invocation, and std::deque costs a chunk map
                indirection per access plus chunked allocation.  Use a
                template sink / function_ref-style wrapper / plain
                interface (see rabin/window.h, cache/packet_store.h) and
                contiguous ring buffers instead.  Suppress a deliberate
                use with a `NOLINT(bc-hotpath)` comment on the line or
                the line above.

  bc-nolock     std::mutex (and friends: shared/recursive/timed mutexes,
                lock_guard, scoped_lock, unique_lock, shared_lock,
                condition_variable) anywhere under src/rabin/, src/cache/,
                src/core/, or src/net/.  The first three are the per-shard
                data plane: the sharded gateways guarantee exactly one
                thread touches each Encoder/Decoder and its caches, so a
                lock there is either dead weight on every packet or a sign
                that state is about to be shared across shards — both are
                design bugs.  src/net/ is the single-threaded event loop:
                everything runs on the loop thread, and the only
                cross-thread entry point is EventLoop::stop() (an atomic
                flag plus an eventfd write) — a lock appearing there means
                loop state leaked to another thread.
                Synchronization belongs in src/gateway/ and src/util/
                (SPSC rings, atomics).  Suppress a deliberate use with a
                `NOLINT(bc-nolock)` comment on the line or the line above.

  bc-obs        Ad-hoc stats printing (printf/std::cout/puts or
                fprintf(stdout, ...)) in library code under src/ outside
                src/obs/ and src/harness/.  Components expose numbers by
                linking them into an obs::MetricsRegistry; rendering
                belongs to the obs exporters and the harness tables —
                a layer that prints its own stats bypasses the single
                snapshot surface (DESIGN.md §10).  snprintf (buffer
                formatting) and fprintf(stderr, ...) (diagnostics) are
                fine.  Suppress with NOLINT(bc-obs).

  bc-layer      A file under src/{util,obs,rabin,packet,cache,resilience,
                fec,core,gateway,net} includes a sim/ or tcp/ header.
                Those layers make up the middlebox (bc_gateway links only
                bc_core, bc_net only bc_gateway); the simulator and the
                simulated TCP stack sit above them, a topology that needs
                both lives in src/app/ (app::Pipeline), and the simulated
                tunnel wire lives with the tests (tests/sim_transport.h).
                Suppress with NOLINT(bc-layer).

Division of labour with tools/bcanalyze (DESIGN.md §11): this script is
the *fast pre-pass* — pure-regex, no parsing, runs in milliseconds and
catches by-name what it can.  Three rules have deeper *semantic*
counterparts in bcanalyze which judge by canonical type and call graph
rather than spelling:

  bc-rawseq   -> bcanalyze bc-rawseq      (fires only when the operand's
                                           canonical type is uint32_t)
  bc-nolock   -> bcanalyze bc-nolock      (resolves type aliases, so a
                                           `using Guard = std::lock_guard`
                                           cannot smuggle a lock in)
  bc-hotpath  -> bcanalyze bc-hotpath-alloc (call-graph reachability from
                                           per-packet roots, node-container
                                           growth, new/malloc)

Keep both: the regex rules here are the cheap recall net (run on every
ctest invocation), bcanalyze is the precision pass (`ctest -L analyze`).
A construct silenced for one tool is silenced for the other — the NOLINT
contract is shared (see nolint_lines / tools/bcanalyze/suppress.py).

Exit status 0 when clean, 1 when violations were found.  `--self-test`
runs the built-in positive/negative cases instead of scanning the tree.
`--corpus DIR` checks the file-based fixture corpus (BC-FIXTURE /
EXPECT(...) annotations, shared format with bcanalyze's selftest).
"""

import argparse
import re
import sys
from pathlib import Path

SOURCE_DIRS = ("src", "tests", "examples", "bench", "tools")
SOURCE_SUFFIXES = {".h", ".cc", ".cpp", ".hpp"}
# Fixture corpora contain deliberate violations with their own EXPECT
# harnesses (--corpus here, tools/bcanalyze/selftest.py); the tree scan
# must not flag them.
EXCLUDED_DIRS = ("tools/bcanalyze/fixtures/", "tools/lint_selftest/corpus/")

PROJECT_INCLUDE_ROOTS = (
    "util", "rabin", "packet", "cache", "core", "sim", "tcp",
    "gateway", "app", "workload", "harness", "resilience", "obs",
)

# Identifier containing "seq" (any case), optionally a member access,
# followed by a relational operator that is not part of <<, >>, <=>, ->,
# or a template-argument bracket.
RAWSEQ_RE = re.compile(
    r"(?P<id>\b[A-Za-z_]\w*\b)\s*(?P<op><=|>=|<|>)(?P<after>=|<|>)?"
)
# Sequence-named identifier on the right-hand side of a comparison.
RAWSEQ_RHS_RE = re.compile(
    r"(?<![<>=\-])(?P<op><=|>=|<|>)(?!=|<|>)\s*(?P<id>\b[A-Za-z_]\w*\b)"
)
WIRECAST_RE = re.compile(
    r"reinterpret_cast\s*<[^<>]*\b(\w*Header\w*)\b[^<>]*>"
)
INCLUDE_RE = re.compile(r'^\s*#\s*include\s+(?P<form>["<])(?P<path>[^">]+)[">]')
HOTPATH_RE = re.compile(r"std\s*::\s*(?P<type>function|deque)\b")
HOTPATH_DIRS = ("src/rabin/", "src/cache/")
NOLOCK_RE = re.compile(
    r"std\s*::\s*(?P<type>mutex|recursive_mutex|shared_mutex|timed_mutex|"
    r"recursive_timed_mutex|lock_guard|scoped_lock|unique_lock|shared_lock|"
    r"condition_variable|condition_variable_any)\b"
)
NOLOCK_DIRS = ("src/rabin/", "src/cache/", "src/core/", "src/net/")
# Stdout printing: bare printf/puts (the lookbehind excludes snprintf,
# fprintf, vprintf...), std::cout, or an explicit fprintf(stdout, ...).
OBS_RE = re.compile(
    r"(?:(?<![\w])printf\s*\(|std\s*::\s*cout\b|(?<![\w])puts\s*\(|"
    r"fprintf\s*\(\s*stdout\b)"
)
OBS_EXEMPT_DIRS = ("src/obs/", "src/harness/")
LAYER_RE = re.compile(r'^\s*#\s*include\s+["<](?P<path>(?:sim|tcp)/[^">]+)[">]')
LAYER_DIRS = tuple(f"src/{d}/" for d in (
    "util", "obs", "rabin", "packet", "cache", "resilience", "fec", "core",
    "gateway", "net"))


class Violation:
    def __init__(self, rule, path, lineno, message):
        self.rule = rule
        self.path = path
        self.lineno = lineno
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.lineno}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text):
    """Blanks out comments and string/char literals, preserving line
    structure so line numbers stay meaningful.  NOLINT markers inside
    comments are honoured before stripping (see scan_rawseq)."""
    out = []
    i = 0
    n = len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
                out.append(" ")
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append(" ")
                i += 1
                continue
            out.append(c)
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
            out.append("\n" if c == "\n" else " ")
        i += 1
    return "".join(out)


NOLINT_RE = re.compile(r"NOLINT\(([^)]*)\)")


def nolint_lines(raw_lines, rule):
    """Line numbers (1-based) suppressed for `rule`: lines carrying a
    NOLINT(...) marker naming the rule (comma-separated list, whitespace
    ignored) plus the line following each (annotation-above style).

    This is the same contract tools/bcanalyze/suppress.py implements;
    the `analyze` ctest suite holds both to it over one shared corpus.
    """
    suppressed = set()
    for idx, line in enumerate(raw_lines, start=1):
        for m in NOLINT_RE.finditer(line):
            names = {n.strip() for n in m.group(1).split(",")}
            if rule in names:
                suppressed.add(idx)
                suppressed.add(idx + 1)
    return suppressed


def scan_rawseq(path, raw_lines, code_lines):
    if path.as_posix().endswith("src/util/seqcmp.h"):
        return []
    suppressed = nolint_lines(raw_lines, "bc-rawseq")
    violations = []
    for lineno, line in enumerate(code_lines, start=1):
        if lineno in suppressed:
            continue
        for m in RAWSEQ_RE.finditer(line):
            if "seq" not in m.group("id").lower():
                continue
            if m.group("after"):  # <<, >>, <=>, >=... already matched ops
                continue
            # Template argument (`vector<SeqEntry>`, `make_unique<TcpSeqPolicy>`):
            # the identifier is introduced by `<` or a `,` inside brackets.
            before = line[: m.start("id")].rstrip()
            if before.endswith("<") or before.endswith(","):
                continue
            # Template close followed by call/statement punctuation
            # (`Foo<BarSeq>(...)`, `Foo<BarSeq>{}`, `Foo<BarSeq>;`).
            rest = line[m.end("op"):].lstrip()
            if m.group("op") == ">" and rest[:1] in ("(", "{", ";", ",", ")", ":", "&", "*", ""):
                continue
            violations.append(Violation(
                "bc-rawseq", path, lineno,
                f"raw `{m.group('id')} {m.group('op')} ...` comparison on a "
                f"sequence-number-like variable; use util::seq_"
                f"{ {'<': 'lt', '<=': 'le', '>': 'gt', '>=': 'ge'}[m.group('op')] }"
                f"() from util/seqcmp.h (wrap-aware), or annotate "
                f"NOLINT(bc-rawseq)"))
        for m in RAWSEQ_RHS_RE.finditer(line):
            ident = m.group("id")
            if "seq" not in ident.lower():
                continue
            if ident[0].isupper():
                continue  # type name in a template argument
            before = line[: m.start("op")]
            if before.count("<") > before.count(">"):
                continue  # this `>` closes a template argument list
            rest = line[m.end("id"):].lstrip()
            if rest[:1] in (">", ","):
                continue  # template argument list (`map<int, seq_t>`)
            if any(v.lineno == lineno and v.rule == "bc-rawseq"
                   for v in violations):
                continue  # already reported via the left-hand side
            violations.append(Violation(
                "bc-rawseq", path, lineno,
                f"raw `... {m.group('op')} {ident}` comparison on a "
                f"sequence-number-like variable; use the wrap-aware "
                f"util::seq_* helpers from util/seqcmp.h, or annotate "
                f"NOLINT(bc-rawseq)"))
    return violations


def scan_wirecast(path, raw_lines, code_lines):
    posix = path.as_posix()
    if "src/packet/" in posix:
        return []
    suppressed = nolint_lines(raw_lines, "bc-wirecast")
    violations = []
    for lineno, line in enumerate(code_lines, start=1):
        if lineno in suppressed:
            continue
        m = WIRECAST_RE.search(line)
        if m:
            violations.append(Violation(
                "bc-wirecast", path, lineno,
                f"reinterpret_cast on wire-header type {m.group(1)} outside "
                f"src/packet/; use the packet library's parse/serialize"))
    return violations


def scan_hotpath(path, raw_lines, code_lines):
    if path.suffix not in (".h", ".hpp"):
        return []
    posix = path.as_posix()
    if not any(posix.startswith(d) or f"/{d}" in posix
               for d in HOTPATH_DIRS):
        return []
    suppressed = nolint_lines(raw_lines, "bc-hotpath")
    violations = []
    for lineno, line in enumerate(code_lines, start=1):
        if lineno in suppressed:
            continue
        m = HOTPATH_RE.search(line)
        if m:
            violations.append(Violation(
                "bc-hotpath", path, lineno,
                f"std::{m.group('type')} in a data-plane header; use a "
                f"template sink, a function_ref-style wrapper, a plain "
                f"interface, or a contiguous ring instead (or annotate "
                f"NOLINT(bc-hotpath))"))
    return violations


def scan_nolock(path, raw_lines, code_lines):
    posix = path.as_posix()
    if not any(posix.startswith(d) or f"/{d}" in posix
               for d in NOLOCK_DIRS):
        return []
    suppressed = nolint_lines(raw_lines, "bc-nolock")
    violations = []
    for lineno, line in enumerate(code_lines, start=1):
        if lineno in suppressed:
            continue
        m = NOLOCK_RE.search(line)
        if m:
            violations.append(Violation(
                "bc-nolock", path, lineno,
                f"std::{m.group('type')} in single-threaded data-plane code; "
                f"each shard owns its codec exclusively — synchronization "
                f"belongs in src/gateway/ or src/util/ (or annotate "
                f"NOLINT(bc-nolock))"))
    return violations


def scan_obs(path, raw_lines, code_lines):
    posix = path.as_posix()
    is_src = "/src/" in f"/{posix}" or posix.startswith("src/")
    if not is_src:
        return []
    if any(posix.startswith(d) or f"/{d}" in posix
           for d in OBS_EXEMPT_DIRS):
        return []
    suppressed = nolint_lines(raw_lines, "bc-obs")
    violations = []
    for lineno, line in enumerate(code_lines, start=1):
        if lineno in suppressed:
            continue
        if OBS_RE.search(line):
            violations.append(Violation(
                "bc-obs", path, lineno,
                "ad-hoc stdout printing in library code; link the value "
                "into an obs::MetricsRegistry and render via the obs "
                "exporters / harness tables (or annotate NOLINT(bc-obs))"))
    return violations


def scan_layer(path, raw_lines):
    posix = path.as_posix()
    if not any(posix.startswith(d) or f"/{d}" in posix for d in LAYER_DIRS):
        return []
    suppressed = nolint_lines(raw_lines, "bc-layer")
    violations = []
    for lineno, line in enumerate(raw_lines, start=1):
        if lineno in suppressed:
            continue
        m = LAYER_RE.match(line)
        if m:
            violations.append(Violation(
                "bc-layer", path, lineno,
                f'middlebox layer includes "{m.group("path")}"; the '
                f"simulator and simulated TCP belong above bc_gateway, in "
                f"src/app/ (or annotate NOLINT(bc-layer))"))
    return violations


def scan_includes(path, root, raw_lines, code_lines):
    del code_lines  # include paths live inside string-like tokens: use raw
    violations = []
    posix = path.as_posix()
    is_src = "/src/" in f"/{posix}" or posix.startswith("src/")
    own_header = None
    if path.suffix == ".cc" and is_src:
        candidate = path.with_suffix(".h")
        if candidate.exists():
            # src/-relative spelling, e.g. "cache/packet_store.h".
            own_header = candidate.relative_to(root / "src").as_posix()
    first_include = None
    for lineno, line in enumerate(raw_lines, start=1):
        m = INCLUDE_RE.match(line)
        if not m:
            continue
        form, inc = m.group("form"), m.group("path")
        if first_include is None:
            first_include = (lineno, form, inc)
        if ".." in inc.split("/"):
            violations.append(Violation(
                "bc-include", path, lineno,
                f'relative include "{inc}"; use a src/-relative path'))
            continue
        root_component = inc.split("/")[0]
        if form == "<" and root_component in PROJECT_INCLUDE_ROOTS:
            violations.append(Violation(
                "bc-include", path, lineno,
                f"project header <{inc}> included with angle brackets; "
                f'use quotes: "{inc}"'))
        if form == '"':
            # Project quoted includes resolve against src/ (library code),
            # the repo root (tests/, bench/), or the including directory.
            resolved = (root / "src" / inc).exists() or \
                       (root / inc).exists() or \
                       (path.parent / inc).exists()
            if not resolved:
                violations.append(Violation(
                    "bc-include", path, lineno,
                    f'quoted include "{inc}" does not resolve against src/ '
                    f"(project includes are src/-relative)"))
    if path.suffix in (".h", ".hpp") and is_src:
        if not any("#pragma once" in line for line in raw_lines[:30]):
            violations.append(Violation(
                "bc-include", path, 1, "header is missing #pragma once"))
    if own_header is not None and first_include is not None:
        _, form, inc = first_include
        if not (form == '"' and inc == own_header):
            violations.append(Violation(
                "bc-include", path, first_include[0],
                f'first include must be the file\'s own header '
                f'"{own_header}" (include-what-you-use ordering)'))
    return violations


def scan_file(path, root):
    rel = path.relative_to(root)
    raw = path.read_text(encoding="utf-8", errors="replace")
    raw_lines = raw.splitlines()
    code_lines = strip_comments_and_strings(raw).splitlines()
    violations = []
    violations += scan_rawseq(rel, raw_lines, code_lines)
    violations += scan_wirecast(rel, raw_lines, code_lines)
    violations += scan_hotpath(rel, raw_lines, code_lines)
    violations += scan_nolock(rel, raw_lines, code_lines)
    violations += scan_obs(rel, raw_lines, code_lines)
    violations += scan_layer(rel, raw_lines)
    violations += scan_includes(root / rel, root, raw_lines, code_lines)
    return violations


def run(root):
    root = Path(root).resolve()
    if not any((root / d).is_dir() for d in SOURCE_DIRS):
        print(f"lint: no source directories under {root} "
              f"(expected one of {', '.join(SOURCE_DIRS)})")
        return 2
    violations = []
    for d in SOURCE_DIRS:
        base = root / d
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix not in SOURCE_SUFFIXES or not path.is_file():
                continue
            rel = path.relative_to(root).as_posix()
            if any(rel.startswith(d) for d in EXCLUDED_DIRS):
                continue
            violations.extend(scan_file(path, root))
    for v in violations:
        print(v)
    if violations:
        print(f"lint: {len(violations)} violation(s)")
        return 1
    print("lint: clean")
    return 0


# ---------------------------------------------------------------- tests --

SELF_TEST_CASES = [
    # (rule, code, expect_violation)
    ("bc-rawseq", "if (a_seq < b_seq) {}", True),
    ("bc-rawseq", "if (tcp_seq <= limit) {}", True),
    ("bc-rawseq", "while (seq >= end_seq) {}", True),
    ("bc-rawseq", "if (util::seq_lt(a, b)) {}", False),
    ("bc-rawseq", "auto p = std::make_unique<TcpSeqPolicy>();", False),
    ("bc-rawseq", "std::vector<SeqEntry> v;", False),
    ("bc-rawseq", "// seq < 100 in a comment", False),
    ("bc-rawseq", "s << seq << other;", False),
    ("bc-rawseq", "if (count < total) {}", False),
    ("bc-rawseq", "if (a_seq < b) {}  // NOLINT(bc-rawseq)", False),
    ("bc-rawseq", "bool r = seq <=> other;", False),
    ("bc-rawseq", "if (limit < next_seq) {}", True),
    ("bc-rawseq", "std::map<int, seq_t> m;", False),
    ("bc-rawseq", "std::unordered_map<std::uint64_t, std::uint32_t> last_seq_;",
     False),
    ("bc-rawseq", "std::optional<std::uint32_t> tcp_seq;", False),
    ("bc-wirecast",
     "auto* h = reinterpret_cast<const Ipv4Header*>(buf);", True),
    ("bc-wirecast",
     "auto* h = reinterpret_cast<packet::TcpHeader*>(p);", True),
    ("bc-wirecast",
     "const char* s = reinterpret_cast<const char*>(b.data());", False),
    ("bc-include", '#include <util/seqcmp.h>', True),
    ("bc-include", '#include <vector>', False),
    ("bc-include", '#include "../cache/packet_store.h"', True),
    ("bc-hotpath", "std::function<void(std::size_t)> sink_;", True),
    ("bc-hotpath", "std::deque<std::uint8_t> window_;", True),
    ("bc-hotpath", "std :: function<void()> cb;", True),
    ("bc-hotpath", "void (*fn_)(void*, std::size_t, Fingerprint);", False),
    ("bc-hotpath", "// std::function is banned here, see bc-hotpath", False),
    ("bc-hotpath",
     "std::function<void()> cb;  // NOLINT(bc-hotpath)", False),
    ("bc-hotpath", "my_function<int> f;", False),
    ("bc-nolock", "std::mutex table_mutex_;", True),
    ("bc-nolock", "std::lock_guard<std::mutex> lk(m_);", True),
    ("bc-nolock", "std::shared_mutex rw_;", True),
    ("bc-nolock", "std::condition_variable cv_;", True),
    ("bc-nolock", "std :: unique_lock<std::mutex> lk(m_);", True),
    ("bc-nolock", "std::atomic<std::uint64_t> completed_{0};", False),
    ("bc-nolock", "// std::mutex would violate bc-nolock here", False),
    ("bc-nolock", "std::mutex m_;  // NOLINT(bc-nolock)", False),
    ("bc-nolock", "my_mutex m_;", False),
    ("bc-obs", 'std::printf("packets=%llu\\n", n);', True),
    ("bc-obs", 'printf("stats\\n");', True),
    ("bc-obs", "std::cout << stats.packets;", True),
    ("bc-obs", 'std::fprintf(stdout, "%llu", n);', True),
    ("bc-obs", 'std::puts("done");', True),
    ("bc-obs", 'std::fprintf(stderr, "bad state\\n");', False),
    ("bc-obs", 'std::snprintf(buf, sizeof buf, "%.2f", v);', False),
    ("bc-obs", "// printf() is banned here, see bc-obs", False),
    ("bc-obs", 'std::printf("x");  // NOLINT(bc-obs)', False),
    ("bc-layer", '#include "sim/trace.h"', True),
    ("bc-layer", '#include "core/encoder.h"', False),
    ("bc-layer", '#include "tcp/sender.h"  // NOLINT(bc-layer)', False),
    # Optional fourth field: the path the snippet is scanned as.
    ("bc-layer", '#include "sim/link.h"', True, "src/net/selftest_snippet.cc"),
    ("bc-layer", '#include "sim/link.h"', False, "src/app/selftest_snippet.cc"),
]


def self_test():
    failures = 0
    root = Path(".")
    for rule, code, expect, *where in SELF_TEST_CASES:
        raw_lines = code.splitlines()
        code_lines = strip_comments_and_strings(code).splitlines()
        path = Path("tests/selftest_snippet.cc")
        if rule == "bc-rawseq":
            found = scan_rawseq(path, raw_lines, code_lines)
        elif rule == "bc-wirecast":
            found = scan_wirecast(path, raw_lines, code_lines)
        elif rule == "bc-hotpath":
            # The rule only fires in data-plane headers.
            found = scan_hotpath(Path("src/cache/selftest_snippet.h"),
                                 raw_lines, code_lines)
        elif rule == "bc-nolock":
            # The rule only fires under the single-threaded codec dirs.
            found = scan_nolock(Path("src/core/selftest_snippet.cc"),
                                raw_lines, code_lines)
        elif rule == "bc-layer":
            # The rule only fires in the middlebox layers.
            found = scan_layer(
                Path(where[0] if where else "src/gateway/selftest_snippet.cc"),
                raw_lines)
        elif rule == "bc-obs":
            # The rule only fires in src/ outside src/obs and src/harness.
            found = scan_obs(Path("src/core/selftest_snippet.cc"),
                             raw_lines, code_lines)
        else:
            # Only the path-independent include checks are testable here.
            found = [v for v in scan_includes(root / path, root, raw_lines,
                                              code_lines)
                     if "own header" not in v.message
                     and "does not resolve" not in v.message
                     and "#pragma once" not in v.message]
        got = any(v.rule == rule for v in found)
        if got != expect:
            print(f"self-test FAIL [{rule}] expected "
                  f"{'violation' if expect else 'clean'}: {code!r}")
            failures += 1
    if failures:
        print(f"lint self-test: {failures} failure(s)")
        return 1
    print(f"lint self-test: {len(SELF_TEST_CASES)} cases ok")
    return 0


# File-based fixture corpus, shared with tools/bcanalyze/selftest.py.
# Same annotation format: `// BC-FIXTURE: path=...` claims a pretend
# repo-relative path (rules are directory-scoped), `EXPECT(rule)` on a
# line (or alone on the line above) demands exactly one violation there.
# EXPECTs for rules this script does not implement (bcanalyze-only rules
# like bc-wire-bounds) are ignored; bc-include is excluded because its
# own-header/resolution checks need the real filesystem layout.

CORPUS_FIXTURE_RE = re.compile(r"BC-FIXTURE:\s*path=(\S+)")
CORPUS_EXPECT_RE = re.compile(r"EXPECT\(([a-z0-9-]+)\)")
CORPUS_RULES = {"bc-rawseq", "bc-wirecast", "bc-hotpath", "bc-nolock",
                "bc-obs"}


def corpus_check(corpus_dir):
    corpus_dir = Path(corpus_dir)
    fixtures = [p for p in sorted(corpus_dir.rglob("*"))
                if p.suffix in SOURCE_SUFFIXES and p.is_file()]
    if not fixtures:
        print(f"lint corpus: no fixtures under {corpus_dir}")
        return 1
    failures = 0
    for path in fixtures:
        raw = path.read_text(encoding="utf-8", errors="replace")
        raw_lines = raw.splitlines()
        m = CORPUS_FIXTURE_RE.search(raw)
        pretend = Path(m.group(1)) if m else Path(path.name)
        code_lines = strip_comments_and_strings(raw).splitlines()
        found = []
        found += scan_rawseq(pretend, raw_lines, code_lines)
        found += scan_wirecast(pretend, raw_lines, code_lines)
        found += scan_hotpath(pretend, raw_lines, code_lines)
        found += scan_nolock(pretend, raw_lines, code_lines)
        found += scan_obs(pretend, raw_lines, code_lines)
        got = {(v.lineno, v.rule) for v in found if v.rule in CORPUS_RULES}
        want = set()
        for lineno, line in enumerate(raw_lines, start=1):
            for em in CORPUS_EXPECT_RE.finditer(line):
                rule = em.group(1)
                if rule not in CORPUS_RULES:
                    continue  # bcanalyze-only rule in the shared corpus
                code = line.split("//")[0].strip()
                want.add((lineno if code else lineno + 1, rule))
        for lineno, rule in sorted(want - got):
            print(f"{path}:{lineno}: expected {rule} violation did not fire")
            failures += 1
        for lineno, rule in sorted(got - want):
            print(f"{path}:{lineno}: unexpected {rule} violation")
            failures += 1
    print(f"lint corpus: {len(fixtures)} fixtures, {failures} failure(s)")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=".",
                        help="repository root to scan (default: cwd)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the built-in rule tests and exit")
    parser.add_argument("--corpus", nargs="?", metavar="DIR",
                        const="tools/lint_selftest/corpus",
                        help="check the file-based fixture corpus instead "
                             "of scanning the tree (default DIR: "
                             "tools/lint_selftest/corpus)")
    args = parser.parse_args()
    if args.self_test:
        sys.exit(self_test())
    if args.corpus:
        sys.exit(corpus_check(Path(args.root) / args.corpus))
    sys.exit(run(args.root))


if __name__ == "__main__":
    main()
