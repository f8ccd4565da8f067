#!/usr/bin/env python3
"""ccsim-lint: repo-specific static checks the generic tools cannot express.

Rules (docs/VERIFICATION.md):
  R1 determinism   Sim-visible code (src/sim, src/core, src/cc, src/res) must
                   not reach for ambient nondeterminism: rand()/srand()/
                   drand48(), time()/gettimeofday()/clock_gettime(),
                   std::chrono wall clocks, std::random_device. Simulations
                   must be pure functions of their config and master seed.
  R2 env-knobs     Every CCSIM_* environment knob is read through the central
                   parser (util/env.h; raw getenv appears only in
                   src/util/env.cc) and documented in README.md or docs/*.md.
                   A knob nobody can discover is a knob that invalidates runs.
  R3 obs-names     Every observability instrument name is registered at
                   exactly one call site (stats registry names are flat; two
                   sites registering "commits" would silently split a metric).
  R4 layering      src/cc/ may include only cc/, util/, sim/, wl/, stats/,
                   audit/ and the obs registry facade (obs/registry.h) — the
                   algorithms must not know about the execution harness
                   (exec/) or observability internals. The engine
                   (src/core/closed_system.{h,cc}) may include from obs/
                   only obs/obs_config.h and obs/trace.h (the types of
                   EngineConfig's fields), the event stream
                   (obs/engine_event.h) and the obs listener
                   (obs/obs_listener.h): observers reach it only as
                   listeners.
  R5 plain-events  No type-erased callable (std::function and its
                   move-only / copyable / function_ref siblings) in src/sim,
                   src/res or src/cc: events, completions and cc signals are
                   plain records and typed calls. The simulator fires an
                   Event record at its EventHandler, a pool hands a
                   ServiceRequest record back to its ServiceSink, and an
                   algorithm signals its CCEngine, so steady-state
                   scheduling and cc decisions stay allocation-free
                   (docs/PERFORMANCE.md). Allowlisted:
                   RunGuard::on_violation in sim/simulator.h (installed once
                   per run, fires at most once).
  R6 status-errors src/ outside util/ must not raise or die with bare
                   `throw` / abort() / exit() / quick_exit() / _Exit():
                   recoverable failures flow through util/status.h (Status /
                   StatusOr) or CCSIM_CHECK (trappable via ScopedCheckTrap),
                   so one poisoned sweep point can fail alone instead of
                   taking the process down (docs/EXECUTION.md, "Failure
                   semantics"). Allowlisted:
                   the PointTimeout throw in core/experiment.cc (caught two
                   frames up by design) and the PrunedRunError throw in
                   verify/explorer.cc (the explorer's internal backtrack
                   signal).
  R7 obs-catalog   Every instrument name registered with a string literal in
                   src/ must appear in the docs/OBSERVABILITY.md instrument
                   catalog. An instrument nobody can look up is a column
                   nobody can interpret. (Dynamically composed names —
                   "<pool>_busy" etc. — are documented as families in the
                   same catalog but cannot be checked mechanically.)
  R8 dense-state   No std::unordered_map / std::unordered_set (use or
                   include) in the per-decision hot path (src/cc, src/core,
                   src/audit): per-granule and per-transaction state lives in
                   the dense containers of util/dense_table.h, which are both
                   faster (direct indexing, slot reuse) and deterministic to
                   iterate (docs/PERFORMANCE.md "Dense CC state"). src/audit
                   is in scope because the auditor's hooks run at every
                   lifecycle transition of an audited run. Allowlisted:
                   core/history.{h,cc} — the offline serialization-graph
                   checker runs between batches, not per decision. (The
                   offline schedule-space verifier in verify/ and the
                   observability layer are outside the rule's directories.)
                   Nor, in src/cc and src/audit, a node-based container
                   (std::list, std::forward_list, std::deque, std::map,
                   std::set, their multi- forms, or their includes): each
                   allocates per insert, which breaks the allocation-free
                   steady state those layers keep.
  R9 own-variates  No <random> in src/: no #include <random>, std::mt19937*,
                   std::*_distribution, std::generate_canonical,
                   std::shuffle, std::sample or std::random_device. The
                   standard fixes MT19937-64's words but not the
                   distributions' algorithms, so every stream draws through
                   util/random.h's own engine and variates, pinned by
                   tests/random_golden_test.cc (docs/MODEL.md §1). tests/
                   and bench/ may use <random>, e.g. as a reference.

Usage: ccsim_lint.py [--root REPO] [--self-test]
Exit status: 0 clean, 1 violations found, 2 usage error.
Stdlib only; no third-party dependencies.
"""

import argparse
import pathlib
import re
import sys

SIM_VISIBLE_DIRS = ("src/sim", "src/core", "src/cc", "src/res")
CPP_SUFFIXES = {".h", ".cc"}

# R1: ambient-nondeterminism tokens. Matched against comment- and
# string-stripped text, so prose mentioning rand() is fine.
R1_BANNED = [
    (re.compile(r"\b(?:std::)?s?rand\s*\("), "rand()/srand()"),
    (re.compile(r"\bdrand48\s*\("), "drand48()"),
    (re.compile(r"\btime\s*\(\s*(?:NULL|nullptr|0|&\w+)?\s*\)"), "time()"),
    (re.compile(r"\bgettimeofday\s*\("), "gettimeofday()"),
    (re.compile(r"\bclock_gettime\s*\("), "clock_gettime()"),
    (
        re.compile(
            r"std::chrono::(?:system_clock|steady_clock|high_resolution_clock)"
        ),
        "std::chrono wall clock",
    ),
    (re.compile(r"\bstd::random_device\b"), "std::random_device"),
]

R2_KNOB = re.compile(r"GetEnv(?:Int|Double)?\s*\(\s*\"(CCSIM_[A-Z0-9_]+)\"")
R2_RAW_GETENV = re.compile(r"\b(?:std::)?getenv\s*\(")

R3_REGISTER = re.compile(
    r"\bAdd(?:Counter|Gauge|Histogram|Instrument)\s*\(\s*\"([^\"]+)\""
)

R4_INCLUDE = re.compile(r"^\s*#include\s+\"([^\"]+)\"", re.MULTILINE)
R4_ALLOWED_PREFIXES = ("cc/", "util/", "sim/", "wl/", "stats/", "audit/")
R4_ALLOWED_EXACT = {"obs/registry.h"}
R4_ENGINE_FILES = ("src/core/closed_system.h", "src/core/closed_system.cc")
R4_ENGINE_OBS_ALLOWED = (
    "obs/obs_config.h",
    "obs/trace.h",
    "obs/engine_event.h",
    "obs/obs_listener.h",
)

R5_HOT_DIRS = ("src/sim", "src/res", "src/cc")
R5_TOKEN = re.compile(
    r"\bstd::(?:function|move_only_function|copyable_function|function_ref)\b"
)
# file -> number of type-erased callables that are deliberately allowed.
R5_ALLOWLIST = {"src/sim/simulator.h": 1}  # RunGuard::on_violation.

# R6: process-killing / bare-exception escape hatches. Only util/ (the
# Status and CCSIM_CHECK machinery itself) may use them; everything else
# returns Status or trips a trappable check.
R6_EXEMPT_PREFIX = "src/util/"
R6_TOKEN = re.compile(
    r"\bthrow\b|\b(?:std::)?(?:abort|exit|quick_exit|_Exit)\s*\("
)
# file -> number of occurrences that are deliberately allowed.
R6_ALLOWLIST = {
    "src/core/experiment.cc": 1,  # throw PointTimeout (caught in-function).
    "src/verify/explorer.cc": 1,  # throw PrunedRunError (backtrack signal).
}

R8_HOT_DIRS = ("src/cc", "src/core", "src/audit")
R8_TOKEN = re.compile(
    r"\bstd::unordered_(?:map|set)\b|#include\s*<unordered_(?:map|set)>"
)
# Offline checkers that run between batches, never per cc decision.
R8_EXEMPT_FILES = {"src/core/history.h", "src/core/history.cc"}
R8_NODE_DIRS = ("src/cc", "src/audit")
R8_NODE_TOKEN = re.compile(
    r"\bstd::(?:forward_)?list\b|\bstd::deque\b|\bstd::(?:multi)?(?:map|set)\b"
    r"|#include\s*<(?:forward_list|list|deque|map|set)>"
)

R9_TOKEN = re.compile(
    r"#include\s*<random>"
    r"|\bstd::mt19937\w*"
    r"|\bstd::\w+_distribution\b"
    r"|\bstd::(?:ranges::)?(?:generate_canonical|shuffle|sample)\b"
    r"|\bstd::random_device\b"
)


def strip_comments_and_strings(text):
    """Replaces comments and string/char literal contents with spaces,
    preserving line numbers so reported positions stay accurate."""
    out = []
    i, n = len(text) and 0, len(text)
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
                out.append('"')
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append("'")
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
                out.append(quote)
            else:
                out.append("\n" if c == "\n" else " ")
        i += 1
    return "".join(out)


def line_of(text, offset):
    return text.count("\n", 0, offset) + 1


class Linter:
    def __init__(self, root):
        self.root = pathlib.Path(root)
        self.violations = []

    def report(self, path, line, rule, message):
        self.violations.append(f"{path}:{line}: [{rule}] {message}")

    def cpp_files(self, *subdirs):
        for sub in subdirs:
            base = self.root / sub
            if not base.is_dir():
                continue
            for path in sorted(base.rglob("*")):
                if path.suffix in CPP_SUFFIXES and path.is_file():
                    yield path

    def rel(self, path):
        return path.relative_to(self.root).as_posix()

    # --- R1 -----------------------------------------------------------------

    def check_determinism(self):
        for path in self.cpp_files(*SIM_VISIBLE_DIRS):
            text = path.read_text(encoding="utf-8")
            code = strip_comments_and_strings(text)
            for pattern, label in R1_BANNED:
                for match in pattern.finditer(code):
                    self.report(
                        self.rel(path),
                        line_of(code, match.start()),
                        "R1",
                        f"{label} in sim-visible code; simulations must be "
                        "pure functions of config and seed (use util/random.h "
                        "streams and sim/time.h)",
                    )

    # --- R2 -----------------------------------------------------------------

    def check_env_knobs(self):
        knobs = {}  # name -> first use "file:line"
        for path in self.cpp_files("src", "bench", "examples", "tests"):
            text = path.read_text(encoding="utf-8")
            code = strip_comments_and_strings(text)
            rel = self.rel(path)
            # The raw text still holds the literal knob names the stripper
            # blanked out, so collect names from the raw text instead. Tests
            # are exempt from the documentation requirement: they feed the
            # parser synthetic CCSIM_TEST_* names that are not real knobs.
            if not rel.startswith("tests/"):
                for match in R2_KNOB.finditer(text):
                    knobs.setdefault(
                        match.group(1), f"{rel}:{line_of(text, match.start())}"
                    )
            if rel != "src/util/env.cc":
                for match in R2_RAW_GETENV.finditer(code):
                    self.report(
                        rel,
                        line_of(code, match.start()),
                        "R2",
                        "raw getenv(); route the knob through util/env.h "
                        "(GetEnv/GetEnvInt/GetEnvDouble) so malformed values "
                        "are hard errors",
                    )
        doc_text = ""
        for doc in [self.root / "README.md"] + sorted(
            (self.root / "docs").glob("*.md")
        ):
            if doc.is_file():
                doc_text += doc.read_text(encoding="utf-8")
        for name, first_use in sorted(knobs.items()):
            if name not in doc_text:
                self.report(
                    first_use.split(":")[0],
                    int(first_use.split(":")[1]),
                    "R2",
                    f"env knob {name} is not documented in README.md or "
                    "docs/*.md",
                )

    # --- R3 -----------------------------------------------------------------

    def check_obs_instruments(self):
        sites = {}  # name -> [file:line, ...]
        for path in self.cpp_files("src"):
            text = path.read_text(encoding="utf-8")
            rel = self.rel(path)
            for match in R3_REGISTER.finditer(text):
                sites.setdefault(match.group(1), []).append(
                    f"{rel}:{line_of(text, match.start())}"
                )
        for name, locations in sorted(sites.items()):
            # The two lock-based cc classes, DynamicLockingCC and
            # StaticLockingCC, deliberately share the lock-table gauge names
            # (one engine instantiates exactly one algorithm, and
            # "lock_waiters" should mean the same thing whichever it is), so
            # duplicates are fine when every site lives under src/cc/.
            if all(loc.startswith("src/cc/") for loc in locations):
                continue
            if len(locations) > 1:
                self.report(
                    locations[1].split(":")[0],
                    int(locations[1].split(":")[1]),
                    "R3",
                    f"obs instrument '{name}' registered at multiple sites "
                    f"({', '.join(locations)}); names must be unique",
                )

    # --- R4 -----------------------------------------------------------------

    def check_layering(self):
        for path in self.cpp_files("src/cc"):
            text = path.read_text(encoding="utf-8")
            for match in R4_INCLUDE.finditer(text):
                include = match.group(1)
                if include in R4_ALLOWED_EXACT:
                    continue
                if include.startswith(R4_ALLOWED_PREFIXES):
                    continue
                self.report(
                    self.rel(path),
                    line_of(text, match.start()),
                    "R4",
                    f'cc/ may not include "{include}" (allowed: '
                    f"{', '.join(R4_ALLOWED_PREFIXES)} and obs/registry.h)",
                )
        for rel in R4_ENGINE_FILES:
            path = self.root / rel
            if not path.is_file():
                continue
            text = path.read_text(encoding="utf-8")
            for match in R4_INCLUDE.finditer(text):
                include = match.group(1)
                if include.startswith("obs/") and (
                    include not in R4_ENGINE_OBS_ALLOWED
                ):
                    self.report(
                        rel,
                        line_of(text, match.start()),
                        "R4",
                        f'the engine may not include "{include}"; observers '
                        f"attach as listeners (allowed from obs/: "
                        f"{', '.join(R4_ENGINE_OBS_ALLOWED)})",
                    )

    # --- R5 -----------------------------------------------------------------

    def check_hot_path_callables(self):
        for path in self.cpp_files(*R5_HOT_DIRS):
            text = path.read_text(encoding="utf-8")
            code = strip_comments_and_strings(text)
            rel = self.rel(path)
            allowed = R5_ALLOWLIST.get(rel, 0)
            for index, match in enumerate(R5_TOKEN.finditer(code)):
                if index < allowed:
                    continue
                self.report(
                    rel,
                    line_of(code, match.start()),
                    "R5",
                    f"{match.group(0)} in src/sim, src/res or src/cc; "
                    "events, completions and cc signals are plain records "
                    "and typed calls (an Event for an EventHandler, a "
                    "ServiceRequest for a ServiceSink, a CCEngine call), "
                    "docs/PERFORMANCE.md",
                )

    # --- R6 -----------------------------------------------------------------

    def check_status_errors(self):
        for path in self.cpp_files("src"):
            rel = self.rel(path)
            if rel.startswith(R6_EXEMPT_PREFIX):
                continue
            text = path.read_text(encoding="utf-8")
            code = strip_comments_and_strings(text)
            allowed = R6_ALLOWLIST.get(rel, 0)
            for index, match in enumerate(R6_TOKEN.finditer(code)):
                if index < allowed:
                    continue
                token = match.group(0).split("(")[0].strip() or "throw"
                self.report(
                    rel,
                    line_of(code, match.start()),
                    "R6",
                    f"bare `{token}` outside util/; fail the operation with "
                    "a Status (util/status.h) or a trappable CCSIM_CHECK so "
                    "one bad point cannot kill a sweep (docs/EXECUTION.md, "
                    "\"Failure semantics\")",
                )

    # --- R7 -----------------------------------------------------------------

    def check_obs_catalog(self):
        catalog_path = self.root / "docs/OBSERVABILITY.md"
        catalog = (
            catalog_path.read_text(encoding="utf-8")
            if catalog_path.is_file()
            else ""
        )
        for path in self.cpp_files("src"):
            text = path.read_text(encoding="utf-8")
            rel = self.rel(path)
            for match in R3_REGISTER.finditer(text):
                name = match.group(1)
                if f"`{name}`" in catalog:
                    continue
                self.report(
                    rel,
                    line_of(text, match.start()),
                    "R7",
                    f"obs instrument '{name}' is not in the "
                    "docs/OBSERVABILITY.md instrument catalog; add a row "
                    "(as `name`) so the column is interpretable",
                )

    # --- R8 -----------------------------------------------------------------

    def check_dense_state(self):
        for path in self.cpp_files(*R8_HOT_DIRS):
            rel = self.rel(path)
            if rel in R8_EXEMPT_FILES:
                continue
            text = path.read_text(encoding="utf-8")
            code = strip_comments_and_strings(text)
            for match in R8_TOKEN.finditer(code):
                self.report(
                    rel,
                    line_of(code, match.start()),
                    "R8",
                    "unordered_map/unordered_set in the hot path; use the "
                    "dense containers of util/dense_table.h (GranuleTable, "
                    "TxnSlotMap, SmallIdSet) — faster and deterministic to "
                    'iterate (docs/PERFORMANCE.md "Dense CC state")',
                )
        for path in self.cpp_files(*R8_NODE_DIRS):
            code = strip_comments_and_strings(path.read_text(encoding="utf-8"))
            for match in R8_NODE_TOKEN.finditer(code):
                self.report(
                    self.rel(path),
                    line_of(code, match.start()),
                    "R8",
                    f"node-based {match.group(0)} in src/cc or src/audit: "
                    "it allocates per insert, breaking the allocation-free "
                    "steady state; use a std::vector or the dense containers "
                    'of util/dense_table.h (docs/PERFORMANCE.md "Dense CC '
                    'state")',
                )

    # --- R9 -----------------------------------------------------------------

    def check_own_variates(self):
        for path in self.cpp_files("src"):
            code = strip_comments_and_strings(path.read_text(encoding="utf-8"))
            for match in R9_TOKEN.finditer(code):
                self.report(
                    self.rel(path),
                    line_of(code, match.start()),
                    "R9",
                    f"{match.group(0)} in src/; draw through util/random.h "
                    "(Rng, Mt19937_64), whose variates do not depend on the "
                    "standard library (docs/MODEL.md §1)",
                )

    def run(self):
        self.check_determinism()
        self.check_env_knobs()
        self.check_obs_instruments()
        self.check_layering()
        self.check_hot_path_callables()
        self.check_status_errors()
        self.check_obs_catalog()
        self.check_dense_state()
        self.check_own_variates()
        return self.violations


# --- Self-test ---------------------------------------------------------------

SELF_TEST_SNIPPETS = {
    "R1": 'int x = rand();\nauto t = std::chrono::system_clock::now();\n',
    "R2_getenv": 'const char* v = getenv("CCSIM_FOO");\n',
    "R2_undocumented": 'auto v = GetEnvInt("CCSIM_SURELY_UNDOCUMENTED", 1);\n',
    "R3": 'registry->AddCounter("dup");\nregistry->AddCounter("dup");\n',
    "R4": '#include "exec/pool.h"\n#include "obs/sampler.h"\n',
    "R4_engine": '#include "obs/blame.h"\n#include "obs/engine_event.h"\n',
    "R1_comment_ok": "// rand() and time() in prose must not fire\n",
    "R5": "std::function<void()> cb_;\n// std::function in prose is fine\n",
    "R5_move_only": "std::move_only_function<void()> done_;\n",
    "R5_allowlisted": (
        "std::function<void(const char*)> on_violation;\n"  # Allowed (1st).
        "std::function<void()> extra_;\n"  # Beyond the allowance: fires.
    ),
    "R6": (
        "void F() { throw std::runtime_error(\"boom\"); }\n"
        "void G() { std::abort(); }\n"
        "void H() { exit(1); }\n"
        "// a comment saying throw or abort() must not fire\n"
    ),
    "R6_exempt": "void T() { throw CheckFailure(\"trap\"); }\n",
    "R6_allowlisted": (
        "void A() { throw PointTimeout(\"budget\"); }\n"  # Allowed (1st).
        "void B() { throw PointTimeout(\"again\"); }\n"  # Beyond: fires.
    ),
    "R7": (
        'registry->AddGauge("documented_gauge");\n'  # In the catalog: silent.
        'registry->AddCounter("undocumented_counter");\n'  # Fires.
    ),
    "R7_catalog": "| `documented_gauge` | gauge | test | a documented one |\n",
    "R8": (
        "#include <unordered_map>\n"
        "std::unordered_set<int64_t> doomed_;\n"
        "// std::unordered_map in a comment must not fire\n"
    ),
    "R8_exempt": "#include <unordered_set>\nstd::unordered_map<int, int> m_;\n",
    "R8_audit": "std::unordered_map<TxnId, TxnLockState> lock_states_;\n",
    "R8_node": "std::list<TxnId> waiters_;\n// std::deque in prose is fine\n",
    "R9": (
        "#include <random>\n"
        "std::mt19937_64 engine_;\n"
        "double u = std::uniform_real_distribution<double>(0, 1)(engine_);\n"
        "std::shuffle(v.begin(), v.end(), engine_);\n"
    ),
    "R9_comment_ok": (
        "// Draws as std::uniform_int_distribution and std::shuffle do.\n"
        "/* std::mt19937_64 and #include <random> in prose. */\n"
    ),
}


def self_test(tmp_root):
    """Runs every rule against a planted-violation tree; each rule must fire
    exactly where intended and stay silent on the comment-only control."""
    import tempfile

    failures = []
    with tempfile.TemporaryDirectory(dir=tmp_root or None) as tmp:
        root = pathlib.Path(tmp)
        (root / "src/cc").mkdir(parents=True)
        (root / "src/sim").mkdir(parents=True)
        (root / "docs").mkdir()
        (root / "README.md").write_text("no knobs here\n")
        (root / "src/sim/bad_rand.cc").write_text(SELF_TEST_SNIPPETS["R1"])
        (root / "src/sim/ok_comment.cc").write_text(
            SELF_TEST_SNIPPETS["R1_comment_ok"]
        )
        (root / "src/cc/bad_env.cc").write_text(
            SELF_TEST_SNIPPETS["R2_getenv"] + SELF_TEST_SNIPPETS["R2_undocumented"]
        )
        # Under src/sim/, not src/cc/: cc implementations may share names.
        (root / "src/sim/bad_obs.cc").write_text(SELF_TEST_SNIPPETS["R3"])
        (root / "src/cc/bad_include.cc").write_text(SELF_TEST_SNIPPETS["R4"])
        # All three layers: a std::function in each, and a move-only one
        # in src/sim.
        (root / "src/res").mkdir(parents=True)
        (root / "src/res/bad_fn.h").write_text(SELF_TEST_SNIPPETS["R5"])
        (root / "src/cc/bad_fn.h").write_text(SELF_TEST_SNIPPETS["R5"])
        (root / "src/sim/bad_fn.h").write_text(
            SELF_TEST_SNIPPETS["R5"] + SELF_TEST_SNIPPETS["R5_move_only"]
        )
        # The allowlisted file may carry exactly one std::function; a second
        # occurrence must fire.
        (root / "src/sim/simulator.h").write_text(
            SELF_TEST_SNIPPETS["R5_allowlisted"]
        )
        (root / "src/sim/bad_throw.cc").write_text(SELF_TEST_SNIPPETS["R6"])
        # util/ owns the escape hatches: it stays silent.
        (root / "src/util").mkdir(parents=True)
        (root / "src/util/check.cc").write_text(SELF_TEST_SNIPPETS["R6_exempt"])
        # The allowlisted file may carry exactly one throw; a second fires.
        (root / "src/core").mkdir(parents=True)
        (root / "src/core/experiment.cc").write_text(
            SELF_TEST_SNIPPETS["R6_allowlisted"]
        )
        # The engine may include the event stream but no observer internals.
        (root / "src/core/closed_system.cc").write_text(
            SELF_TEST_SNIPPETS["R4_engine"]
        )
        # R7: one documented and one undocumented instrument; the catalog
        # documents only the former. (bad_obs.cc's "dup" registrations are
        # also uncatalogued, adding two more R7 hits.)
        (root / "src/core/obs_names.cc").write_text(SELF_TEST_SNIPPETS["R7"])
        (root / "docs/OBSERVABILITY.md").write_text(
            SELF_TEST_SNIPPETS["R7_catalog"]
        )
        # R8: an include and a usage in the hot path fire; the comment and
        # the allowlisted offline checker stay silent.
        (root / "src/cc/bad_hash_map.h").write_text(SELF_TEST_SNIPPETS["R8"])
        # The auditor's per-transition hooks are hot path too.
        (root / "src/audit").mkdir(parents=True)
        (root / "src/audit/bad_audit.h").write_text(
            SELF_TEST_SNIPPETS["R8_audit"]
        )
        (root / "src/core/history.cc").write_text(
            SELF_TEST_SNIPPETS["R8_exempt"]
        )
        # A node-based container fires in src/cc but not in src/core.
        (root / "src/cc/bad_node.h").write_text(SELF_TEST_SNIPPETS["R8_node"])
        (root / "src/core/ok_node.h").write_text(SELF_TEST_SNIPPETS["R8_node"])
        # R9: the hit and the prose in src/ (any directory); tests/ may use
        # <random> as a reference.
        (root / "src/wl").mkdir(parents=True)
        (root / "src/wl/bad_random.cc").write_text(SELF_TEST_SNIPPETS["R9"])
        (root / "src/util/ok_random.h").write_text(
            SELF_TEST_SNIPPETS["R9_comment_ok"]
        )
        (root / "tests").mkdir()
        (root / "tests/random_reference_test.cc").write_text(
            SELF_TEST_SNIPPETS["R9"]
        )
        violations = Linter(root).run()

        def expect(substring, count):
            hits = [v for v in violations if substring in v]
            if len(hits) != count:
                failures.append(
                    f"expected {count} violation(s) matching {substring!r}, "
                    f"got {len(hits)}: {violations}"
                )

        expect("[R1]", 2)  # rand() and the wall clock; not the comment.
        expect("raw getenv", 1)
        expect("CCSIM_SURELY_UNDOCUMENTED", 1)
        expect("[R3]", 1)
        # exec/ and obs/sampler.h under cc/ (registry.h is allowed), and
        # obs/blame.h in the engine (engine_event.h is allowed).
        expect("[R4]", 3)
        expect("closed_system.cc:1", 1)
        # The three bad_fn.h plants (not their comments) and the
        # over-allowance in simulator.h.
        expect("[R5]", 5)
        expect("src/res/bad_fn.h:1", 1)
        expect("src/cc/bad_fn.h:1", 1)
        expect("src/sim/bad_fn.h", 2)
        expect("std::move_only_function", 1)
        expect("simulator.h:2", 1)  # The allowlisted first occurrence: silent.
        expect("ok_comment", 0)
        expect("[R6]", 4)  # throw/abort/exit + the over-allowance throw.
        expect("bad_throw.cc", 3)  # Not the comment on line 4.
        expect("experiment.cc:2", 1)  # Allowlisted first throw: silent.
        expect("check.cc", 0)  # util/ owns the escape hatches.
        expect("[R7]", 3)  # undocumented_counter + both "dup" sites.
        expect("undocumented_counter", 1)
        expect("documented_gauge", 0)  # Catalogued: silent.
        # Include + usage + the audit/ plant + the node-based container in
        # cc/; not comments.
        expect("[R8]", 4)
        expect("bad_audit.h", 1)  # audit/ is in the rule's scope.
        expect("history.cc", 0)  # Offline checker: allowlisted.
        expect("bad_node.h:1", 1)
        expect("ok_node.h", 0)  # Node-based containers stay legal in core/.
        # The include, the engine, the distribution, the shuffle; not the
        # prose, and nothing under tests/.
        expect("[R9]", 4)
        expect("bad_random.cc", 4)
        expect("ok_random.h", 0)
        expect("random_reference_test.cc", 0)
    if failures:
        for f in failures:
            print(f"ccsim-lint self-test FAIL: {f}", file=sys.stderr)
        return 1
    print("ccsim-lint self-test: all rules fire as intended")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        default=str(pathlib.Path(__file__).resolve().parents[2]),
        help="repository root (default: two levels above this script)",
    )
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="verify each rule fires on planted violations, then exit",
    )
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test(None)
    violations = Linter(args.root).run()
    for violation in violations:
        print(violation)
    if violations:
        print(f"ccsim-lint: {len(violations)} violation(s)", file=sys.stderr)
        return 1
    print("ccsim-lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
