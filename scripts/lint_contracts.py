#!/usr/bin/env python3
"""Repo-specific contract linter for the congested-clique simulator.

Statically enforces the data-plane contracts that util/analysis.hpp checks
at runtime, plus a few hygiene rules the general-purpose tools don't know
about. Rules (suppress a finding with `// lint:allow(<rule>): reason` on
the offending line or the line above):

  deliver-in-parallel   deliver()/discard_staged() called inside a
                        cca::parallel_for lambda. Phase changes are
                        single-threaded by contract (network.hpp).
  parallel-staging-src  send/send_words/stage inside a parallel_for lambda
                        whose source argument is not the lambda's own
                        induction parameter. The staging contract allows
                        one distinct src per iteration; anything else needs
                        a human to certify per-iteration src disjointness.
  stale-inbox-span      a span variable bound to inbox() and used after a
                        later deliver() in the same scope. Inbox views die
                        at deliver() (StaleInboxSpan at runtime).
  semiring-zero-test    a semiring implementation (zero/one/add/mul) with
                        no reference to the zero contract or its audit
                        tests. Engines skip zero() entries wholesale, so
                        every semiring must document/test absorption.
  header-hygiene        missing #pragma once in a header, `using namespace
                        std`, or a .cpp that does not include its own
                        header first (catches headers that only compile
                        because of include order).
  header-layering       a src/ header other than the three multiplication
                        engine headers (core/mm.hpp, core/mm_dense.hpp,
                        core/mm_sparse.hpp) that includes one of them.
                        Headers reach the engines through core/engine.hpp
                        (MmKind, MmDispatchContext, AutoEngineChoice); only
                        .cpp files compile engine bodies, so an engine edit
                        rebuilds the few translation units that run one.
  input-validate        a CCA_EXPECTS in src/core/*.cpp whose condition
                        reads the Graph argument (`g.`). A caller's graph is
                        user input: reject it with CCA_VALIDATE, which
                        throws InvalidArgument in every contract mode,
                        instead of aborting the process (util/contracts.hpp).
  isa-clones            `target_clones` or `__attribute__((target(` in src/
                        outside the one definition of CCA_ISA_CLONES
                        (src/matrix/kernels.cpp). The list of ISA levels
                        the node-local kernels are compiled for lives in
                        that macro; other code that wants per-ISA clones
                        uses the macro, so the list changes in one place.

Multi-process rules (the sharded data plane, clique/socket_transport.hpp):

  discarded-broadcast   a `(void)` cast of a broadcast_all/broadcast_reduce
                        result in src/. The returned words are the only
                        cross-node fact every rank shares; a caller that
                        drops them and decides on its own scan reads
                        non-owned rows under sharding, so the ranks diverge
                        (the directed-girth deadlock). Fold the returned
                        words, or certify a charge-only site with an allow
                        tag.

  full-range-staging    a parallel_for in src/ that iterates the FULL node
                        range (literal 0 lower bound) and stages from its
                        induction variable. Under a sharded transport only
                        OWNED sources may stage (Network asserts owns(src));
                        engine loops must walk net.owned(), or the site must
                        be owns_all()-guarded and carry an allow tag.
  transport-deliver     deliver()/discard_staged() invoked directly on a
                        Transport object outside clique/network.cpp and the
                        transport implementations. Worker-rank code must go
                        through Network::deliver() — that IS the exchange
                        barrier; calling the backend directly would run the
                        socket exchange without charging rounds.
  inbox-span-exchange   a raw span variable bound to inbox() in src/ engine
                        code where the same scope later delivers. Identical
                        detection to stale-inbox-span, but reported even
                        when the use precedes the deliver: under sockets
                        the exchange rewrites the arena, so spans held
                        across ANY exchange in scope should migrate to
                        analysis::InboxLease (generation-checked on every
                        access) rather than rely on use-before-deliver
                        ordering.

Exit status: 0 when clean, 1 when any unsuppressed finding remains.
`--fix-list` prints one clickable `file:line: rule` per finding.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SCAN_DIRS = ("src", "tests", "bench", "examples")

ALLOW_RE = re.compile(r"//\s*lint:allow\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)")
LAMBDA_RE = re.compile(
    r"\[[^\]\n]*\]\s*\(\s*(?:const\s+)?[\w:<>]+(?:\s*[&*])?(?:\s+(\w+))?\s*\)"
)
PHASE_RE = re.compile(r"(?:\.|->)\s*(deliver|discard_staged)\s*\(")
STAGE_RE = re.compile(r"(?:\.|->)\s*(send_words|send|stage)\s*\(")
INBOX_BIND_RE = re.compile(
    r"(?:auto|std::span<[^;>]*>)\s*(?:const\s*)?&?\s*(\w+)\s*=\s*"
    r"[\w.\->]+(?:\.|->)inbox\s*\("
)
PRAGMA_ONCE_RE = re.compile(r"^\s*#\s*pragma\s+once\s*$", re.MULTILINE)
USING_STD_RE = re.compile(r"^\s*using\s+namespace\s+std\s*;")
INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"')
ZERO_CONTRACT_RE = re.compile(r"zero[\s-]contract|ZeroSkipAudit", re.IGNORECASE)
EXPECTS_RE = re.compile(r"\bCCA_EXPECTS\s*\(")
ISA_ATTR_RE = re.compile(
    r"\btarget_clones\b|__attribute__\s*\(\(\s*target\s*\(")
ISA_CLONES_HOME = Path("src/matrix/kernels.cpp")
ISA_CLONES_DEFINE_RE = re.compile(r"^[ \t]*#[ \t]*define[ \t]+CCA_ISA_CLONES\b",
                                  re.MULTILINE)
GRAPH_ARG_RE = re.compile(r"\bg\.")
DISCARDED_BROADCAST_RE = re.compile(
    r"\(\s*void\s*\)\s*(?:(?:cca::)?clique::)?broadcast_(?:all|reduce)\s*\(")


class Finding:
    def __init__(self, path: Path, line: int, rule: str, msg: str):
        self.path = path
        self.line = line  # 1-based
        self.rule = rule
        self.msg = msg

    def location(self) -> str:
        return f"{self.path.relative_to(REPO)}:{self.line}"


def strip_comments_and_strings(text: str) -> str:
    """Blank out comments and string/char literals, preserving offsets so
    line numbers computed against the stripped text match the original."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            out.append("".join(ch if ch == "\n" else " " for ch in text[i:j]))
            i = j
        elif c in "\"'":
            q, j = c, i + 1
            while j < n and text[j] != q:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append(c + " " * (j - i - 2) + (q if j - i >= 2 else ""))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def line_of(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


def match_brace(text: str, open_idx: int) -> int:
    """Index one past the brace matching text[open_idx] == '{' (len(text)
    when unbalanced)."""
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i + 1
    return len(text)


def allowed(lines: list[str], lineno: int, rule: str) -> bool:
    for candidate in (lineno, lineno - 1):
        if 1 <= candidate <= len(lines):
            m = ALLOW_RE.search(lines[candidate - 1])
            if m and rule in [r.strip() for r in m.group(1).split(",")]:
                return True
    return False


def first_argument(code: str, call_open: int) -> str:
    """The first argument of the call whose '(' sits at call_open."""
    depth, i = 0, call_open
    start = call_open + 1
    while i < len(code):
        c = code[i]
        if c in "([{":
            depth += 1
        elif c in ")]}":
            depth -= 1
            if depth == 0:
                return code[start:i].strip()
        elif c == "," and depth == 1:
            return code[start:i].strip()
        i += 1
    return ""


def lint_parallel_regions(path: Path, raw: str, code: str,
                          lines: list[str]) -> list[Finding]:
    findings = []
    for m in re.finditer(r"\bparallel_for\s*\(", code):
        # The lambda belongs to THIS call: only look inside a short window,
        # or an unmatchable signature would silently latch onto the next
        # lambda in the file.
        lam = LAMBDA_RE.search(code, m.end(), m.end() + 200)
        if not lam:
            continue
        body_open = code.find("{", lam.end())
        if body_open < 0:
            continue
        body_end = match_brace(code, body_open)
        body = code[body_open:body_end]
        induction = lam.group(1)
        for pm in PHASE_RE.finditer(body):
            ln = line_of(code, body_open + pm.start())
            if not allowed(lines, ln, "deliver-in-parallel"):
                findings.append(Finding(
                    path, ln, "deliver-in-parallel",
                    f"{pm.group(1)}() inside a parallel_for lambda; phase "
                    "changes must run on the serial thread"))
        for sm in STAGE_RE.finditer(body):
            call_open = body.index("(", sm.end() - 1)
            src_arg = first_argument(body, call_open)
            if induction is not None and src_arg == induction:
                continue
            ln = line_of(code, body_open + sm.start())
            if not allowed(lines, ln, "parallel-staging-src"):
                findings.append(Finding(
                    path, ln, "parallel-staging-src",
                    f"{sm.group(1)}() src argument '{src_arg}' is not the "
                    f"parallel_for induction variable '{induction}'; "
                    "certify per-iteration src disjointness with "
                    "lint:allow(parallel-staging-src) or restructure"))
        _ = raw
    return findings


def lint_stale_inbox(path: Path, code: str, lines: list[str]) -> list[Finding]:
    findings = []
    for m in INBOX_BIND_RE.finditer(code):
        var = m.group(1)
        decl_end = m.end()
        # The innermost scope: walk forward until braces close below the
        # declaration's depth.
        depth, i, scope_end = 0, decl_end, len(code)
        while i < len(code):
            if code[i] == "{":
                depth += 1
            elif code[i] == "}":
                depth -= 1
                if depth < 0:
                    scope_end = i
                    break
            i += 1
        scope = code[decl_end:scope_end]
        dm = re.search(r"(?:\.|->)\s*deliver\s*\(", scope)
        if not dm:
            continue
        after = scope[dm.end():]
        um = re.search(r"\b%s\b" % re.escape(var), after)
        if not um:
            continue
        ln = line_of(code, decl_end + dm.end() + um.start())
        if not allowed(lines, ln, "stale-inbox-span"):
            findings.append(Finding(
                path, ln, "stale-inbox-span",
                f"inbox view '{var}' used after a deliver() in the same "
                "scope; inbox spans die at deliver() "
                "(analysis::InboxLease faults this at runtime)"))
    return findings


def lint_semirings(path: Path, raw: str, code: str,
                   lines: list[str]) -> list[Finding]:
    findings = []
    for m in re.finditer(r"\b(?:struct|class)\s+(\w+)\s*(?:final\s*)?{", code):
        body_end = match_brace(code, code.index("{", m.start()))
        body = code[m.start():body_end]
        if not all(re.search(p, body) for p in
                   (r"\bzero\s*\(", r"\bone\s*\(", r"\badd\s*\(",
                    r"\bmul\s*\(")):
            continue
        ln = line_of(code, m.start())
        # The reference may live in the doc comment above the struct or
        # inside it — check the raw text of the struct span plus the
        # preceding 15 lines.
        lo = max(0, ln - 16)
        hi = line_of(code, body_end)
        context = "\n".join(lines[lo:hi])
        if ZERO_CONTRACT_RE.search(context):
            continue
        if not allowed(lines, ln, "semiring-zero-test"):
            findings.append(Finding(
                path, ln, "semiring-zero-test",
                f"semiring '{m.group(1)}' has no zero-contract reference; "
                "engines skip zero() entries wholesale — document the "
                "absorption law and point at its audit test "
                "(see matrix/semiring.hpp, tests/test_matrix.cpp "
                "ZeroSkipAudit)"))
        _ = raw
    return findings


# Transport implementations and the accounting layer legitimately drive the
# backend phase ops; everyone else must go through Network (the exchange
# barrier, where rounds are charged).
TRANSPORT_PHASE_EXEMPT = {
    Path("src/clique/network.cpp"),
    Path("src/clique/network.hpp"),
    Path("src/clique/transport.cpp"),
    Path("src/clique/transport.hpp"),
    Path("src/clique/socket_transport.cpp"),
    Path("src/clique/socket_transport.hpp"),
}

TRANSPORT_PHASE_RE = re.compile(
    r"\b(\w*transport\w*)\s*(?:\.|->)\s*(deliver|discard_staged)\s*\(",
    re.IGNORECASE,
)


def lint_multiproc(path: Path, code: str, lines: list[str]) -> list[Finding]:
    findings = []
    rel = path.relative_to(REPO)
    if rel.parts[0] != "src":
        return findings

    # full-range-staging: a full-node-range parallel loop that stages from
    # its induction variable stages from sources this rank may not own.
    for m in re.finditer(r"\bparallel_for\s*\(\s*0\s*,", code):
        lam = LAMBDA_RE.search(code, m.end(), m.end() + 200)
        if not lam:
            continue
        body_open = code.find("{", lam.end())
        if body_open < 0:
            continue
        body = code[body_open:match_brace(code, body_open)]
        induction = lam.group(1)
        for sm in STAGE_RE.finditer(body):
            call_open = body.index("(", sm.end() - 1)
            if first_argument(body, call_open) != induction:
                continue  # parallel-staging-src owns the mismatched case
            ln = line_of(code, body_open + sm.start())
            if not allowed(lines, ln, "full-range-staging"):
                findings.append(Finding(
                    path, ln, "full-range-staging",
                    f"{sm.group(1)}() from induction variable "
                    f"'{induction}' of a FULL-range parallel_for; sharded "
                    "transports reject non-owned sources — iterate "
                    "net.owned(), or guard the call path with owns_all() "
                    "and certify with lint:allow(full-range-staging)"))
            break  # one finding per loop is enough

    # transport-deliver: phase ops belong to Network, not call sites.
    if rel not in TRANSPORT_PHASE_EXEMPT:
        for m in TRANSPORT_PHASE_RE.finditer(code):
            ln = line_of(code, m.start())
            if not allowed(lines, ln, "transport-deliver"):
                findings.append(Finding(
                    path, ln, "transport-deliver",
                    f"{m.group(2)}() called directly on '{m.group(1)}'; "
                    "worker code must use Network::deliver() — the exchange "
                    "barrier that also charges rounds"))

    # inbox-span-exchange: a raw inbox span whose innermost scope later
    # delivers should be an analysis::InboxLease (generation-checked), even
    # if every current use happens before the exchange.
    for m in INBOX_BIND_RE.finditer(code):
        var = m.group(1)
        decl_end = m.end()
        depth, i, scope_end = 0, decl_end, len(code)
        while i < len(code):
            if code[i] == "{":
                depth += 1
            elif code[i] == "}":
                depth -= 1
                if depth < 0:
                    scope_end = i
                    break
            i += 1
        scope = code[decl_end:scope_end]
        dm = re.search(r"(?:\.|->)\s*deliver\s*\(", scope)
        if not dm:
            continue
        if re.search(r"\b%s\b" % re.escape(var), scope[dm.end():]):
            continue  # stale-inbox-span reports the use-after-deliver case
        ln = line_of(code, m.start())
        if not allowed(lines, ln, "inbox-span-exchange"):
            findings.append(Finding(
                path, ln, "inbox-span-exchange",
                f"raw inbox span '{var}' held in a scope that later "
                "delivers; under the socket backend the exchange rewrites "
                "the arena — use analysis::InboxLease so every access is "
                "generation-checked"))
    return findings


def lint_header_hygiene(path: Path, raw: str, code: str,
                        lines: list[str]) -> list[Finding]:
    findings = []
    rel = path.relative_to(REPO)
    if path.suffix == ".hpp" and not PRAGMA_ONCE_RE.search(raw):
        findings.append(Finding(path, 1, "header-hygiene",
                                "header is missing #pragma once"))
    for i, text in enumerate(code.splitlines(), start=1):
        if USING_STD_RE.match(text) and not allowed(lines, i, "header-hygiene"):
            findings.append(Finding(path, i, "header-hygiene",
                                    "`using namespace std` is banned"))
    if path.suffix == ".cpp" and rel.parts[0] == "src":
        own = path.with_suffix(".hpp")
        if own.exists():
            own_rel = str(own.relative_to(REPO / "src"))
            # Include paths live inside string literals, which the stripped
            # text blanks — match against the raw lines.
            for i, text in enumerate(lines, start=1):
                m = INCLUDE_RE.match(text)
                if not m:
                    continue
                if m.group(1) != own_rel and not allowed(lines, i,
                                                         "header-hygiene"):
                    findings.append(Finding(
                        path, i, "header-hygiene",
                        f'first project include must be "{own_rel}" (the '
                        "self-include-first rule keeps headers "
                        "self-contained)"))
                break
    return findings


ENGINE_HEADERS = ("core/mm.hpp", "core/mm_dense.hpp", "core/mm_sparse.hpp")


def lint_header_layering(path: Path, lines: list[str]) -> list[Finding]:
    rel = path.relative_to(REPO)
    if path.suffix != ".hpp" or rel.parts[0] != "src":
        return []
    if str(rel.relative_to("src")) in ENGINE_HEADERS:
        return []
    findings = []
    for i, text in enumerate(lines, start=1):
        m = INCLUDE_RE.match(text)
        if m and m.group(1) in ENGINE_HEADERS and not allowed(
                lines, i, "header-layering"):
            findings.append(Finding(
                path, i, "header-layering",
                f'header includes engine-body header "{m.group(1)}"; '
                "include core/engine.hpp for the dispatch types and move "
                "engine calls into a .cpp"))
    return findings


def lint_input_validate(path: Path, code: str,
                        lines: list[str]) -> list[Finding]:
    if path.suffix != ".cpp" or path.parent != REPO / "src" / "core":
        return []
    findings = []
    for m in EXPECTS_RE.finditer(code):
        if not GRAPH_ARG_RE.search(first_argument(code, m.end() - 1)):
            continue
        ln = line_of(code, m.start())
        if not allowed(lines, ln, "input-validate"):
            findings.append(Finding(
                path, ln, "input-validate",
                "CCA_EXPECTS checks the caller's graph; bad user input must "
                "throw InvalidArgument — use CCA_VALIDATE"))
    return findings


def lint_isa_clones(path: Path, code: str,
                    lines: list[str]) -> list[Finding]:
    rel = path.relative_to(REPO)
    if rel.parts[0] != "src":
        return []
    home = (0, 0)  # [start, end) of the CCA_ISA_CLONES directive
    if rel == ISA_CLONES_HOME:
        m = ISA_CLONES_DEFINE_RE.search(code)
        if m:
            end = m.start()
            while True:  # the directive runs through its continuation lines
                nl = code.find("\n", end)
                if nl < 0:
                    end = len(code)
                    break
                end = nl + 1
                if not code[:nl].rstrip(" \t").endswith("\\"):
                    break
            home = (m.start(), end)
    findings = []
    for m in ISA_ATTR_RE.finditer(code):
        if home[0] <= m.start() < home[1]:
            continue
        ln = line_of(code, m.start())
        if not allowed(lines, ln, "isa-clones"):
            findings.append(Finding(
                path, ln, "isa-clones",
                "per-ISA target attribute outside CCA_ISA_CLONES; mark the "
                "function CCA_ISA_CLONES (src/matrix/kernels.cpp) so the "
                "ISA list stays in one place"))
    return findings


def lint_discarded_broadcast(path: Path, code: str,
                             lines: list[str]) -> list[Finding]:
    if path.relative_to(REPO).parts[0] != "src":
        return []
    findings = []
    for m in DISCARDED_BROADCAST_RE.finditer(code):
        ln = line_of(code, m.start())
        if not allowed(lines, ln, "discarded-broadcast"):
            findings.append(Finding(
                path, ln, "discarded-broadcast",
                "broadcast result discarded; fold the returned words "
                "(broadcast_reduce) so every rank decides on the same fact"))
    return findings


def lint_file(path: Path) -> list[Finding]:
    raw = path.read_text(encoding="utf-8")
    code = strip_comments_and_strings(raw)
    lines = raw.splitlines()
    findings = []
    findings += lint_parallel_regions(path, raw, code, lines)
    findings += lint_multiproc(path, code, lines)
    findings += lint_stale_inbox(path, code, lines)
    findings += lint_semirings(path, raw, code, lines)
    findings += lint_header_hygiene(path, raw, code, lines)
    findings += lint_header_layering(path, lines)
    findings += lint_input_validate(path, code, lines)
    findings += lint_isa_clones(path, code, lines)
    findings += lint_discarded_broadcast(path, code, lines)
    return findings


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("paths", nargs="*", type=Path,
                    help="files to lint (default: src tests bench examples)")
    ap.add_argument("--fix-list", action="store_true",
                    help="print one clickable file:line per finding")
    args = ap.parse_args()

    if args.paths:
        files = [p.resolve() for p in args.paths]
    else:
        files = sorted(
            f for d in SCAN_DIRS
            for f in (REPO / d).rglob("*")
            if f.suffix in (".hpp", ".cpp") and (REPO / d).exists()
        )

    findings: list[Finding] = []
    for f in files:
        findings.extend(lint_file(f))

    if args.fix_list:
        for f in findings:
            print(f"{f.location()}: {f.rule}")
    else:
        for f in findings:
            print(f"{f.location()}: [{f.rule}] {f.msg}")
        print(f"lint_contracts: {len(findings)} finding(s) in "
              f"{len(files)} file(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
