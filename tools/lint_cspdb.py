#!/usr/bin/env python3
"""Project lint suite for cspdb.

Mechanically enforces conventions the compiler cannot:

  raw-sync        std::mutex / std::shared_mutex / std::condition_variable
                  and their lock adapters (lock_guard, unique_lock,
                  scoped_lock, shared_lock) plus the <mutex>,
                  <shared_mutex>, <condition_variable> includes are banned
                  everywhere except src/util/sync.h. Raw primitives are
                  invisible to Clang's -Wthread-safety analysis; the
                  annotated wrappers are not.

  obs-macro-in-header
                  CSPDB_COUNT / CSPDB_TIMER_SCOPE / CSPDB_TRACE_* /
                  CSPDB_GAUGE_* must not appear in headers outside
                  src/obs/. Headers are included into arbitrary TUs, so a
                  header-side macro puts registry traffic into every
                  includer's inlined code. Instrumentation belongs in the
                  .cc that owns the work, where it can be kept out of
                  inner loops.

  obs-macro-tier  Layering: src/util/ must not use obs macros at all
                  (obs depends on util, never the reverse), and any .cc
                  file using an obs macro must include "obs/obs.h"
                  directly rather than picking the macros up
                  transitively.

  metric-name-literal
                  The name argument of every metric/trace macro
                  (CSPDB_COUNT*, CSPDB_GAUGE_*, CSPDB_TIMER_SCOPE,
                  CSPDB_HISTO_*, CSPDB_TRACE_*) must be a single string
                  literal at the call site -- never a variable,
                  concatenation, or formatted string. Dynamic names
                  defeat the per-site `static` registry-handle cache
                  (the first name wins, later names are silently
                  recorded under it), make the metric namespace
                  unenumerable by grep, and can grow the registry
                  without bound.

  raw-simd        Vendor SIMD intrinsic headers (<immintrin.h>,
                  <x86intrin.h>, <arm_neon.h>) and __builtin_ia32_*
                  builtins are banned everywhere except src/util/simd.h.
                  Kernels express vector work through the simd::
                  primitives so one backend switch (and one differential
                  oracle) covers every hot loop; a stray intrinsic
                  elsewhere silently breaks the scalar/NEON builds.

  raw-socket      Socket/epoll system headers (<sys/socket.h>,
                  <sys/epoll.h>, <sys/eventfd.h>, <netinet/*.h>,
                  <arpa/inet.h>, <netdb.h>, <poll.h>) and the
                  epoll_*/eventfd syscalls are banned everywhere except
                  src/net/. All networking goes through the net:: tier
                  (wire framing, event loop, client) so the strict
                  decoder and backpressure rules cannot be bypassed by
                  an ad-hoc socket elsewhere in the tree.

  wallclock       time.time / datetime.now / date.today / utcnow /
                  perf_counter are banned in bench/*.py and tools/*.py.
                  Benchmark distillers must be replayable: deriving
                  output from "now" makes two runs over the same input
                  disagree.

Escapes: append a marker comment on the offending line or the line
directly above it, with a reason --

  C++:    // cspdb-lint: allow(raw-sync) -- <why>
  Python: # cspdb-lint: allow(wallclock) -- <why>

Usage:
  tools/lint_cspdb.py [paths...]   lint the tree (default: repo root)
  tools/lint_cspdb.py --self-test  run the linter against embedded
                                   violation fixtures; exits nonzero if
                                   any rule fails to fire.

Exit status: 0 clean, 1 findings, 2 usage/internal error.
"""

import argparse
import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

ALLOW_RE = re.compile(r"(?://|#)\s*cspdb-lint:\s*allow\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)")

CPP_EXTS = (".h", ".cc")
SKIP_DIRS = {".git", "build", "third_party", "__pycache__"}

RAW_SYNC_RE = re.compile(
    r"std::(mutex|shared_mutex|condition_variable(?:_any)?|timed_mutex|"
    r"recursive_mutex|lock_guard|unique_lock|scoped_lock|shared_lock)\b"
    r"|#\s*include\s*<(mutex|shared_mutex|condition_variable)>"
)

OBS_MACRO_RE = re.compile(
    r"\bCSPDB_(COUNT(?:_N)?|TIMER_SCOPE|HISTO_(?:NS|SCOPE)|"
    r"TRACE_(?:SPAN|INSTANT|COUNTER|FLOW_BEGIN|FLOW_END)|"
    r"GAUGE_(?:SET|MAX))\b"
)

# Metric/trace macros whose first argument is a metric or span name.
METRIC_NAME_MACRO_RE = re.compile(
    r"\bCSPDB_(?:COUNT(?:_N)?|TIMER_SCOPE|HISTO_(?:NS|SCOPE)|"
    r"TRACE_(?:SPAN|INSTANT|COUNTER|FLOW_BEGIN|FLOW_END)|"
    r"GAUGE_(?:SET|MAX))\s*\("
)

# A single plain string literal: dotted lowercase-ish identifier path.
METRIC_NAME_LITERAL_RE = re.compile(r'^\s*"[A-Za-z0-9_.]+"\s*$')

RAW_SIMD_RE = re.compile(
    r"#\s*include\s*<(immintrin|x86intrin|arm_neon|emmintrin|smmintrin|"
    r"tmmintrin|avxintrin|avx2intrin)\.h>"
    r"|\b__builtin_ia32_\w+"
)

RAW_SOCKET_RE = re.compile(
    r"#\s*include\s*<(sys/socket|sys/epoll|sys/eventfd|netinet/[a-z0-9_]+|"
    r"arpa/inet|netdb|poll)\.h>"
    r"|\bepoll_(create1?|ctl|wait)\s*\(|\beventfd\s*\("
)

WALLCLOCK_RE = re.compile(
    r"\btime\.time\s*\(|\bdatetime\.now\s*\(|\bdate\.today\s*\(|"
    r"\butcnow\s*\(|\bperf_counter\s*\(|\bmonotonic\s*\("
)


class Finding:
    def __init__(self, rule, path, lineno, line):
        self.rule = rule
        self.path = path
        self.lineno = lineno
        self.line = line.strip()

    def __str__(self):
        rel = os.path.relpath(self.path, REPO_ROOT)
        return f"{rel}:{self.lineno}: [{self.rule}] {self.line}"


def allowed(rule, lines, idx):
    """True if line idx (0-based) or the line above carries an allow marker
    naming `rule`."""
    for j in (idx, idx - 1):
        if j < 0:
            continue
        m = ALLOW_RE.search(lines[j])
        if m and rule in [r.strip() for r in m.group(1).split(",")]:
            return True
    return False


def is_comment_only(line):
    stripped = line.lstrip()
    return stripped.startswith("//") or stripped.startswith("*")


def first_macro_arg(lines, row, col, max_lines=6):
    """Return the text of the first macro argument, starting just after the
    open paren at lines[row][col:]. Scans across up to `max_lines` physical
    lines (call sites wrap), tracking nested parens and string quoting.
    Returns None if no depth-0 `,` or `)` terminator is found in range."""
    arg = []
    text = lines[row][col:]
    depth = 0
    in_str = False
    for _ in range(max_lines):
        k = 0
        while k < len(text):
            c = text[k]
            if in_str:
                if c == "\\":
                    arg.append(c)
                    k += 1
                    if k < len(text):
                        arg.append(text[k])
                        k += 1
                    continue
                if c == '"':
                    in_str = False
            elif c == '"':
                in_str = True
            elif c == "(":
                depth += 1
            elif c == ")":
                if depth == 0:
                    return "".join(arg)
                depth -= 1
            elif c == "," and depth == 0:
                return "".join(arg)
            arg.append(c)
            k += 1
        row += 1
        if row >= len(lines):
            return None
        arg.append(" ")
        text = lines[row]
    return None


def lint_cpp(path, rel, lines):
    findings = []
    norm = rel.replace(os.sep, "/")
    is_header = norm.endswith(".h")
    in_sync_h = norm == "src/util/sync.h"
    in_simd_h = norm == "src/util/simd.h"
    in_obs = norm.startswith("src/obs/")
    in_util = norm.startswith("src/util/")
    in_net = norm.startswith("src/net/")

    uses_obs_macro = False
    includes_obs_h = False

    for i, line in enumerate(lines):
        lineno = i + 1
        if '#include "obs/obs.h"' in line:
            includes_obs_h = True

        if not in_sync_h and RAW_SYNC_RE.search(line):
            if not is_comment_only(line) and not allowed("raw-sync", lines, i):
                findings.append(Finding("raw-sync", path, lineno, line))

        if not in_simd_h and RAW_SIMD_RE.search(line):
            if not is_comment_only(line) and not allowed("raw-simd", lines, i):
                findings.append(Finding("raw-simd", path, lineno, line))

        if not in_net and RAW_SOCKET_RE.search(line):
            if not is_comment_only(line) and not allowed(
                "raw-socket", lines, i
            ):
                findings.append(Finding("raw-socket", path, lineno, line))

        m = OBS_MACRO_RE.search(line)
        if m and not is_comment_only(line) and "#define" not in line:
            uses_obs_macro = True
            if is_header and not in_obs and not allowed(
                "obs-macro-in-header", lines, i
            ):
                findings.append(Finding("obs-macro-in-header", path, lineno, line))
            if in_util and not allowed("obs-macro-tier", lines, i):
                findings.append(Finding("obs-macro-tier", path, lineno, line))

        # Metric/span names must be literal at the call site. src/obs/ is
        # exempt: it hosts the macro machinery and name-agnostic plumbing.
        if not in_obs and not is_comment_only(line) and "#define" not in line:
            for call in METRIC_NAME_MACRO_RE.finditer(line):
                arg = first_macro_arg(lines, i, call.end())
                if (arg is None or not METRIC_NAME_LITERAL_RE.match(arg)) and (
                    not allowed("metric-name-literal", lines, i)
                ):
                    findings.append(
                        Finding("metric-name-literal", path, lineno, line)
                    )

    if (
        uses_obs_macro
        and not is_header
        and not in_obs
        and not includes_obs_h
        and not allowed("obs-macro-tier", lines, 0)
    ):
        findings.append(
            Finding(
                "obs-macro-tier",
                path,
                1,
                'uses CSPDB obs macros without #include "obs/obs.h"',
            )
        )
    return findings


def lint_python(path, rel, lines):
    findings = []
    for i, line in enumerate(lines):
        m = WALLCLOCK_RE.search(line)
        if m and not line.lstrip().startswith("#"):
            if not allowed("wallclock", lines, i):
                findings.append(Finding("wallclock", path, i + 1, line))
    return findings


def lint_file(path):
    rel = os.path.relpath(path, REPO_ROOT)
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            lines = f.read().splitlines()
    except OSError as e:
        sys.stderr.write(f"error: cannot read {path}: {e}\n")
        return []
    if path.endswith(CPP_EXTS):
        return lint_cpp(path, rel, lines)
    norm = rel.replace(os.sep, "/")
    if path.endswith(".py") and (
        norm.startswith("bench/") or norm.startswith("tools/")
    ):
        return lint_python(path, rel, lines)
    return []


def walk(paths):
    for root in paths:
        if os.path.isfile(root):
            yield root
            continue
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = [d for d in dirnames if d not in SKIP_DIRS]
            for name in sorted(filenames):
                if name.endswith(CPP_EXTS) or name.endswith(".py"):
                    yield os.path.join(dirpath, name)


# --- self-test fixtures ------------------------------------------------------
# Each entry: (rule expected to fire, pseudo-path relative to the repo root,
# file body). The self-test feeds these through the same lint_* functions the
# real walk uses and fails if any expected rule stays silent, or if the
# allow-marker variants produce findings.

SELF_TEST_VIOLATIONS = [
    (
        "raw-sync",
        "src/service/bad_sync.cc",
        "#include <mutex>\nstd::mutex mu;\n",
    ),
    (
        "raw-sync",
        "tests/bad_lock_test.cc",
        "void f() { std::lock_guard<std::mutex> l(m); }\n",
    ),
    (
        "obs-macro-in-header",
        "src/db/bad_header.h",
        "inline void f() { CSPDB_COUNT(db.bad); }\n",
    ),
    (
        "obs-macro-tier",
        "src/util/bad_layering.cc",
        '#include "obs/obs.h"\nvoid f() { CSPDB_TIMER_SCOPE(util.bad); }\n',
    ),
    (
        "obs-macro-tier",
        "src/db/bad_include.cc",
        "void f() { CSPDB_TRACE_SPAN(db.bad); }\n",
    ),
    (
        "raw-simd",
        "src/csp/bad_intrinsics.cc",
        "#include <immintrin.h>\n",
    ),
    (
        "raw-simd",
        "src/db/bad_neon.h",
        "#include <arm_neon.h>\n",
    ),
    (
        "raw-simd",
        "src/db/bad_builtin.cc",
        "int f(long long* p) { return __builtin_ia32_ptestz256(p, p); }\n",
    ),
    (
        "metric-name-literal",
        "src/db/bad_metric_var.cc",
        '#include "obs/obs.h"\n'
        "void f(const char* n) { CSPDB_COUNT(n); }\n",
    ),
    (
        "metric-name-literal",
        "src/db/bad_metric_concat.cc",
        '#include "obs/obs.h"\n'
        "void f(const std::string& suffix, long v) {\n"
        '  CSPDB_HISTO_NS(("db." + suffix).c_str(), v);\n'
        "}\n",
    ),
    (
        "metric-name-literal",
        "src/db/bad_metric_format.cc",
        '#include "obs/obs.h"\n'
        "void f(int shard) {\n"
        "  CSPDB_TIMER_SCOPE(MakeName(\"db.shard\", shard));\n"
        "}\n",
    ),
    (
        "raw-socket",
        "src/service/bad_socket.cc",
        "#include <sys/socket.h>\n",
    ),
    (
        "raw-socket",
        "src/db/bad_epoll.cc",
        "int f() { return epoll_create1(0); }\n",
    ),
    (
        "raw-socket",
        "tests/bad_poll_test.cc",
        "#include <poll.h>\n",
    ),
    (
        "wallclock",
        "bench/bad_distill.py",
        # cspdb-lint: allow(wallclock) -- self-test fixture, string literal
        "import time\nstamp = time.time()\n",
    ),
]

SELF_TEST_CLEAN = [
    (
        "raw-sync allow marker",
        "src/service/escaped.cc",
        "// cspdb-lint: allow(raw-sync) -- interop with external API\n"
        "std::mutex mu;\n",
    ),
    (
        "wallclock allow marker",
        "bench/escaped.py",
        "# cspdb-lint: allow(wallclock) -- provenance stamp\n"
        "stamp = time.time()\n",
    ),
    (
        "obs macro in cc with include",
        "src/db/good.cc",
        '#include "obs/obs.h"\nvoid f() { CSPDB_COUNT("db.good"); }\n',
    ),
    (
        "literal metric name wrapped across lines",
        "src/db/good_wrapped.cc",
        '#include "obs/obs.h"\n'
        "void f(long v) {\n"
        "  CSPDB_GAUGE_SET(\n"
        '      "db.wrapped.bytes", v + 1);\n'
        "}\n",
    ),
    (
        "metric-name-literal allow marker",
        "src/db/escaped_metric.cc",
        '#include "obs/obs.h"\n'
        "// cspdb-lint: allow(metric-name-literal) -- bounded test-only names\n"
        "void f(const char* n) { CSPDB_COUNT(n); }\n",
    ),
    (
        "raw-simd sanctioned in simd.h",
        "src/util/simd.h",
        "#include <immintrin.h>\n#include <arm_neon.h>\n",
    ),
    (
        "raw-simd allow marker",
        "src/db/escaped_simd.cc",
        "// cspdb-lint: allow(raw-simd) -- vetted one-off kernel\n"
        "#include <immintrin.h>\n",
    ),
    (
        "raw-socket sanctioned in src/net/",
        "src/net/event_loop.cc",
        "#include <sys/epoll.h>\n#include <sys/eventfd.h>\n"
        "int f() { return epoll_create1(0); }\n",
    ),
    (
        "raw-socket allow marker",
        "src/db/escaped_socket.cc",
        "// cspdb-lint: allow(raw-socket) -- vetted one-off probe\n"
        "#include <sys/socket.h>\n",
    ),
]


def run_self_test():
    failures = 0
    for rule, rel, body in SELF_TEST_VIOLATIONS:
        path = os.path.join(REPO_ROOT, rel)
        lines = body.splitlines()
        if path.endswith(CPP_EXTS):
            findings = lint_cpp(path, rel, lines)
        else:
            findings = lint_python(path, rel, lines)
        if not any(f.rule == rule for f in findings):
            sys.stderr.write(f"self-test FAIL: {rule} did not fire on {rel}\n")
            failures += 1
    for label, rel, body in SELF_TEST_CLEAN:
        path = os.path.join(REPO_ROOT, rel)
        lines = body.splitlines()
        if path.endswith(CPP_EXTS):
            findings = lint_cpp(path, rel, lines)
        else:
            findings = lint_python(path, rel, lines)
        if findings:
            sys.stderr.write(
                f"self-test FAIL: false positive on '{label}' ({rel}): "
                f"{findings[0]}\n"
            )
            failures += 1
    if failures:
        return 1
    total = len(SELF_TEST_VIOLATIONS) + len(SELF_TEST_CLEAN)
    print(f"lint_cspdb self-test: {total} fixtures OK")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", help="files or directories to lint")
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="verify every rule fires on embedded violation fixtures",
    )
    args = parser.parse_args(argv)

    if args.self_test:
        return run_self_test()

    paths = args.paths or [
        os.path.join(REPO_ROOT, d)
        for d in ("src", "tests", "bench", "tools", "examples")
        if os.path.isdir(os.path.join(REPO_ROOT, d))
    ]
    findings = []
    for path in walk(paths):
        findings.extend(lint_file(path))

    for f in findings:
        print(f)
    if findings:
        print(f"lint_cspdb: {len(findings)} finding(s)")
        return 1
    print("lint_cspdb: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
