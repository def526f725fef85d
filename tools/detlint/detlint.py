#!/usr/bin/env python3
"""detlint - determinism lint for the OTP-DB tree.

The simulator's headline guarantee is repeat-run byte identity: one
(configuration, seed) produces the same histories, digests and output on every
run. That contract is easy to break silently: iterate an
``std::unordered_map`` in a path that feeds digests or network send order and
every determinism test still passes on *this* binary (iteration order is a
deterministic function of the insertion sequence for a fixed standard library)
while the invariant the tests are supposed to pin - "order does not depend on
hash-table internals" - is gone. detlint enforces the contract statically.

Rules
-----
  R1  no range-iteration (or ``.begin()`` iterator loops) over
      ``std::unordered_map`` / ``std::unordered_set`` (and their multi
      variants, or containers of them) anywhere in the scanned tree, unless
      the site carries a ``// DETLINT(order-insensitive): <why>`` annotation
      whose reason states why the order cannot reach digests, network sends,
      or cross-site-compared stats.
  R2  no wall-clock reads (``time()``, ``gettimeofday``, ``clock_gettime``,
      ``std::chrono::{system,steady,high_resolution}_clock``) outside the
      allowlist (``src/db/io_shim``, ``bench/``, ``tools/``). Simulated time
      comes from ``Simulator::now()``; real time is an input the replicas
      must never observe.
  R3  no unseeded randomness (``rand()``, ``srand``, ``std::random_device``,
      ``*rand48``) anywhere. All randomness flows from the seeded
      ``util/rng.h`` streams.
  R4  no pointer-value ordering or address hashing in ordering-sensitive
      code: ``reinterpret_cast<[u]intptr_t>``, ``std::hash<T*>``,
      ordered containers / ``priority_queue`` / ``std::less`` keyed on a
      raw pointer type. Addresses differ run to run (ASLR, allocator
      history); any order derived from them is nondeterministic.

Annotation grammar
------------------
  // DETLINT(<tag>): <reason>

on the flagged line, or alone on the line directly above it. Tags map to
rules: ``order-insensitive`` (R1), ``wall-clock`` (R2), ``seeded`` (R3),
``address-stable`` (R4). The reason is mandatory: an empty reason is itself
a finding (rule A1). Annotations that suppress nothing are reported as
warnings (stale annotations rot).

Implementation notes
--------------------
This is a self-contained lexical analyzer with a cross-file type index - not
a full C++ frontend. The container ships no libclang/clang-tidy, so detlint
tokenizes the tree itself: comments and string literals are stripped with
line fidelity (raw strings included), declarations of unordered containers
(members, locals, params, typedefs/using-aliases, and functions *returning*
unordered containers) are indexed across every scanned file, and iteration
sites are resolved against that index. The tradeoff is name-based
resolution: a range-for over ``x.items()`` is flagged iff some scanned
declaration gives ``items`` an unordered type. In this codebase member names
are distinctive (``msgs_``, ``instances_``, ``sparse_chains_``), which keeps
both false-positive and false-negative rates at zero on the current tree;
the golden testdata suite (``--selftest``) pins the exact semantics.

Exit codes: 0 clean, 1 findings, 2 usage/internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass, field

# --------------------------------------------------------------------------
# Configuration
# --------------------------------------------------------------------------

UNORDERED_TYPES = {
    "unordered_map",
    "unordered_set",
    "unordered_multimap",
    "unordered_multiset",
}

# Sequence containers whose *element* type may be unordered; `name[i]` then
# denotes an unordered container.
SEQUENCE_TYPES = {"vector", "array", "deque"}

WALL_CLOCK_CALLS = {
    "time",
    "gettimeofday",
    "clock_gettime",
    "clock",
    "localtime",
    "gmtime",
    "mktime",
    "timespec_get",
    "ftime",
}
WALL_CLOCK_TYPES = {"system_clock", "steady_clock", "high_resolution_clock"}

RANDOM_CALLS = {"rand", "srand", "drand48", "lrand48", "mrand48", "srand48", "random_shuffle"}
RANDOM_TYPES = {"random_device"}

ORDERED_BY_KEY = {"map", "set", "multimap", "multiset", "priority_queue", "less", "greater"}

TAG_TO_RULE = {
    "order-insensitive": "R1",
    "wall-clock": "R2",
    "seeded": "R3",
    "address-stable": "R4",
}

RULE_NAMES = {
    "R1": "unordered-iteration",
    "R2": "wall-clock",
    "R3": "unseeded-randomness",
    "R4": "pointer-order",
    "A1": "annotation-missing-reason",
}

# Path fragments (matched against the /-normalized relative path) where R2 is
# permitted: the I/O shim wraps real disks, and bench/tool mains may time
# themselves. R1/R3/R4 have no path escape - annotation only.
DEFAULT_ALLOWLIST = {
    "R2": ["src/db/io_shim", "bench/", "tools/"],
}

DEFAULT_ROOTS = ["src", "tools/otpdb_cli.cpp"]

SOURCE_EXTS = {".cc", ".cpp", ".cxx", ".h", ".hpp", ".hh"}

ANNOTATION_RE = re.compile(r"//\s*DETLINT\(([a-z-]+)\)\s*:?\s*(.*)")
EXPECT_RE = re.compile(r"//\s*EXPECT-DETLINT\s*:\s*([A-Z]\d)")

TOKEN_RE = re.compile(
    r"[A-Za-z_][A-Za-z0-9_]*"  # identifier / keyword
    r"|\d[\dxXa-fA-F'.uUlLfF]*"  # numeric literal (approximate, never inspected)
    r"|::|->|\+\+|--|<<=?|>>=?|<=|>=|==|!=|&&|\|\||[-+*/%&|^!~<>=?:;,.(){}\[\]#]"
)


# --------------------------------------------------------------------------
# Data model
# --------------------------------------------------------------------------


@dataclass
class Token:
    text: str
    line: int


@dataclass
class Annotation:
    tag: str
    reason: str
    line: int
    used: bool = False


@dataclass
class Finding:
    path: str
    line: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: error: [{self.rule}/{RULE_NAMES[self.rule]}] {self.message}"


@dataclass
class SourceFile:
    path: str  # repo-relative, /-separated
    tokens: list = field(default_factory=list)
    annotations: dict = field(default_factory=dict)  # line -> Annotation
    expects: list = field(default_factory=list)  # (line, rule)
    code_lines: set = field(default_factory=set)  # lines holding actual code


# --------------------------------------------------------------------------
# Lexing: strip comments/strings with line fidelity, harvest annotations
# --------------------------------------------------------------------------


def lex_file(path: str, rel: str, text: str) -> SourceFile:
    src = SourceFile(path=rel)
    n = len(text)
    i = 0
    line = 1
    code = []  # stripped characters

    def harvest_comment(comment: str, at_line: int) -> None:
        m = ANNOTATION_RE.search(comment)
        if m:
            # A nested `//` ends the rationale (lets other tooling markers
            # share the line without becoming part of the proof text).
            reason = m.group(2).split("//")[0].strip()
            src.annotations[at_line] = Annotation(tag=m.group(1), reason=reason, line=at_line)
        e = EXPECT_RE.search(comment)
        if e:
            src.expects.append((at_line, e.group(1)))

    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            if j == -1:
                j = n
            harvest_comment(text[i:j], line)
            code.append(" " * (j - i))
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            chunk = text[i:j]
            harvest_comment(chunk, line)
            code.append(re.sub(r"[^\n]", " ", chunk))
            line += chunk.count("\n")
            i = j
        elif c == "R" and nxt == '"':
            # Raw string literal R"delim( ... )delim"
            m = re.match(r'R"([^\s()\\]{0,16})\(', text[i:])
            if m:
                close = ")" + m.group(1) + '"'
                j = text.find(close, i + m.end())
                j = n if j == -1 else j + len(close)
                chunk = text[i:j]
                code.append('""' + re.sub(r"[^\n]", " ", chunk[2:]))
                line += chunk.count("\n")
                i = j
            else:
                code.append(c)
                i += 1
        elif c == '"' or c == "'":
            quote = c
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == quote or text[j] == "\n":
                    break
                j += 1
            j = min(j + 1, n)
            code.append(quote + " " * max(0, j - i - 2) + (quote if j - i >= 2 else ""))
            i = j
        elif c == "\n":
            code.append(c)
            line += 1
            i += 1
        else:
            code.append(c)
            i += 1

    stripped = "".join(code)
    assert len(stripped) == n, f"lexer lost line fidelity in {path}"
    for ln, text_line in enumerate(stripped.split("\n"), start=1):
        for m in TOKEN_RE.finditer(text_line):
            src.tokens.append(Token(m.group(0), ln))
            src.code_lines.add(ln)
    return src


# --------------------------------------------------------------------------
# Declaration index
# --------------------------------------------------------------------------


@dataclass
class DeclIndex:
    # name -> (declaring file, line, flavor); flavor: "unordered" or "seq-of-unordered"
    names: dict = field(default_factory=dict)
    # type aliases that resolve to an unordered container
    aliases: set = field(default_factory=set)

    def record(self, name: str, rel: str, line: int, flavor: str) -> None:
        # First declaration wins; collisions across files are fine because we
        # only ever *add* suspicion, and the diagnostic cites this site.
        self.names.setdefault(name, (rel, line, flavor))


def skip_template_args(tokens, i):
    """tokens[i] == '<'; returns index one past the matching '>' (or len)."""
    depth = 0
    n = len(tokens)
    while i < n:
        t = tokens[i].text
        if t == "<":
            depth += 1
        elif t == ">":
            depth -= 1
            if depth == 0:
                return i + 1
        elif t == ">>":  # never produced by our tokenizer, defensive
            depth -= 2
            if depth <= 0:
                return i + 1
        elif t in (";", "{", "}"):
            return i + 1  # malformed/shift-expression; bail
        i += 1
    return n


def template_args_contain_unordered(tokens, lo, hi, index: DeclIndex) -> bool:
    return any(t.text in UNORDERED_TYPES or t.text in index.aliases for t in tokens[lo:hi])


def build_decl_index(files) -> DeclIndex:
    index = DeclIndex()
    # Pass 1: using/typedef aliases of unordered types (may chain, so iterate
    # to a fixed point; two rounds cover alias-of-alias in practice).
    for _ in range(2):
        for f in files:
            toks = f.tokens
            for i, tok in enumerate(toks):
                if tok.text == "using" and i + 2 < len(toks) and toks[i + 2].text == "=":
                    rhs = toks[i + 3 : i + 12]
                    if any(t.text in UNORDERED_TYPES or t.text in index.aliases for t in rhs):
                        index.aliases.add(toks[i + 1].text)
                elif tok.text == "typedef":
                    # typedef std::unordered_map<...> Name;
                    j = i + 1
                    end = j
                    while end < len(toks) and toks[end].text != ";":
                        end += 1
                    seg = toks[j:end]
                    if seg and any(t.text in UNORDERED_TYPES or t.text in index.aliases for t in seg[:-1]):
                        index.aliases.add(seg[-1].text)

    # Pass 2: declarations. Patterns handled:
    #   [std::]unordered_map<...> name      -> "unordered" (vars, params, returns)
    #   AliasName name                      -> "unordered"
    #   vector<unordered_set<...>> name     -> "seq-of-unordered"
    for f in files:
        toks = f.tokens
        n = len(toks)
        i = 0
        while i < n:
            t = toks[i].text
            if t in UNORDERED_TYPES or t in SEQUENCE_TYPES:
                base = t
                j = i + 1
                if j < n and toks[j].text == "<":
                    lo = j
                    j = skip_template_args(toks, j)
                    is_seq = base in SEQUENCE_TYPES
                    if is_seq and not template_args_contain_unordered(toks, lo, j, index):
                        i = j
                        continue
                    # declarator: optional &/*/const, then identifier
                    k = j
                    while k < n and toks[k].text in ("&", "*", "const"):
                        k += 1
                    if k < n and re.fullmatch(r"[A-Za-z_]\w*", toks[k].text):
                        follow = toks[k + 1].text if k + 1 < n else ";"
                        if follow in (";", "=", "{", ",", ")", "("):
                            flavor = "seq-of-unordered" if is_seq else "unordered"
                            # `name(` is a function returning the type - the
                            # call site `for (x : name(...))` resolves the same.
                            index.record(toks[k].text, f.path, toks[k].line, flavor)
                    i = j
                    continue
            elif t in index.aliases:
                k = i + 1
                while k < n and toks[k].text in ("&", "*", "const"):
                    k += 1
                if k < n and re.fullmatch(r"[A-Za-z_]\w*", toks[k].text) and toks[k].text not in index.aliases:
                    follow = toks[k + 1].text if k + 1 < n else ";"
                    if follow in (";", "=", "{", ",", ")", "("):
                        index.record(toks[k].text, f.path, toks[k].line, "unordered")
            i += 1
    return index


# --------------------------------------------------------------------------
# Rule checks
# --------------------------------------------------------------------------


def allowlisted(rel: str, rule: str, allowlist) -> bool:
    return any(frag in rel or rel.startswith(frag) for frag in allowlist.get(rule, []))


def resolve_range_expr(expr, index: DeclIndex):
    """Resolve a range-for's range expression to an indexed unordered name.

    Returns (name, decl) or None. Handles `x`, `a.b`, `a->b_`, `this->x`,
    `ns::x`, trailing calls `x.items()`, and subscripts `rows_[i]`.
    """
    toks = [t.text for t in expr]
    # strip one level of wrapping parens
    while len(toks) >= 2 and toks[0] == "(" and toks[-1] == ")":
        toks = toks[1:-1]
    if not toks:
        return None
    # trailing call: ... name ( args )  -> resolve `name` (fn returning unordered)
    if toks[-1] == ")":
        depth = 0
        for k in range(len(toks) - 1, -1, -1):
            if toks[k] == ")":
                depth += 1
            elif toks[k] == "(":
                depth -= 1
                if depth == 0:
                    if k > 0 and re.fullmatch(r"[A-Za-z_]\w*", toks[k - 1]):
                        name = toks[k - 1]
                        hit = index.names.get(name)
                        if hit and hit[2] == "unordered":
                            return name, hit
                    return None
        return None
    # subscript: name [ ... ]  -> element of a sequence-of-unordered
    if toks[-1] == "]":
        depth = 0
        for k in range(len(toks) - 1, -1, -1):
            if toks[k] == "]":
                depth += 1
            elif toks[k] == "[":
                depth -= 1
                if depth == 0:
                    if k > 0 and re.fullmatch(r"[A-Za-z_]\w*", toks[k - 1]):
                        name = toks[k - 1]
                        hit = index.names.get(name)
                        if hit and hit[2] == "seq-of-unordered":
                            return name, hit
                    return None
        return None
    # plain chain: last identifier decides
    last = toks[-1]
    if re.fullmatch(r"[A-Za-z_]\w*", last):
        hit = index.names.get(last)
        if hit and hit[2] == "unordered":
            return last, hit
    return None


def check_file(src: SourceFile, index: DeclIndex, allowlist) -> list:
    findings = []
    toks = src.tokens
    n = len(toks)

    def suppressed(line: int, rule: str) -> bool:
        """DETLINT annotation on the line or in the comment block above it.

        The annotation may wrap over several comment lines; the line carrying
        the DETLINT tag anchors it. Scanning stops at the first code line, so
        an annotation never leaks past the statement it documents.
        """
        candidates = [line]
        ln = line - 1
        while ln > 0 and ln not in src.code_lines and line - ln <= 8:
            candidates.append(ln)
            ln -= 1
        for ln in candidates:
            ann = src.annotations.get(ln)
            if ann and TAG_TO_RULE.get(ann.tag) == rule:
                ann.used = True
                if not ann.reason:
                    findings.append(
                        Finding(src.path, ln, "A1",
                                f"DETLINT({ann.tag}) annotation has no rationale; "
                                "state why this site cannot affect ordered outputs")
                    )
                return True
        return False

    def emit(line: int, rule: str, message: str) -> None:
        if allowlisted(src.path, rule, allowlist):
            return
        if suppressed(line, rule):
            return
        findings.append(Finding(src.path, line, rule, message))

    i = 0
    while i < n:
        t = toks[i]
        text = t.text
        prev = toks[i - 1].text if i > 0 else ""
        prev2 = toks[i - 2].text if i > 1 else ""
        nxt = toks[i + 1].text if i + 1 < n else ""

        # ---- R1: range-for / iterator loops over unordered containers ----
        if text == "for" and nxt == "(":
            close = skip_parens(toks, i + 1)
            inner = toks[i + 2 : close - 1]
            colon = find_top_level_colon(inner)
            if colon is not None:
                expr = inner[colon + 1 :]
                hit = resolve_range_expr(expr, index)
                if hit:
                    name, (dfile, dline, _) = hit
                    emit(
                        t.line, "R1",
                        f"range-for over '{name}' which is declared as an unordered "
                        f"container at {dfile}:{dline}; iteration order depends on "
                        "hash-table internals - sort keys first, use an ordered "
                        "container, or annotate DETLINT(order-insensitive) with proof",
                    )
            else:
                # iterator loop: for (auto it = expr.begin(); ...) - resolve
                # the identifier immediately before `.begin`/`.cbegin`.
                texts = [x.text for x in inner]
                for k in range(1, len(texts) - 1):
                    if (
                        texts[k] in (".", "->")
                        and texts[k + 1] in ("begin", "cbegin")
                        and re.fullmatch(r"[A-Za-z_]\w*", texts[k - 1])
                    ):
                        hit = index.names.get(texts[k - 1])
                        if hit and hit[2] == "unordered":
                            emit(
                                t.line, "R1",
                                f"iterator loop over '{texts[k - 1]}' which is declared as an "
                                f"unordered container at {hit[0]}:{hit[1]}; iteration order "
                                "depends on hash-table internals",
                            )
                        break
            i = close
            continue

        # ---- R2: wall-clock ----
        if text in WALL_CLOCK_CALLS and nxt == "(" and is_call_site(prev, prev2):
            emit(t.line, "R2",
                 f"wall-clock call '{text}()'; simulated code must read time from "
                 "Simulator::now() (allowlist: src/db/io_shim, bench/, tools/)")
        elif text in WALL_CLOCK_TYPES and prev == "::" and prev2 == "chrono":
            emit(t.line, "R2",
                 f"std::chrono::{text} observed; wall/monotonic clocks are "
                 "nondeterministic inputs (allowlist: src/db/io_shim, bench/, tools/)")

        # ---- R3: unseeded randomness ----
        if text in RANDOM_CALLS and nxt == "(" and is_call_site(prev, prev2):
            emit(t.line, "R3",
                 f"unseeded randomness '{text}()'; draw from the seeded util/rng.h "
                 "streams instead")
        elif text in RANDOM_TYPES and prev != "." and prev != "->":
            emit(t.line, "R3",
                 "std::random_device is entropy from the host; all randomness must "
                 "flow from seeded util/rng.h streams")

        # ---- R4: pointer-value ordering / address hashing ----
        if text == "reinterpret_cast" and nxt == "<":
            close = skip_template_args(toks, i + 1)
            args = [x.text for x in toks[i + 2 : close - 1]]
            if any(a in ("uintptr_t", "intptr_t") for a in args):
                emit(t.line, "R4",
                     "pointer reinterpreted as an integer; addresses differ run to "
                     "run (ASLR, allocator history) so any value derived from one "
                     "is nondeterministic")
            i = close
            continue
        if text in ("hash", "less", "greater") and nxt == "<" and prev != "<":
            close = skip_template_args(toks, i + 1)
            args = [x.text for x in toks[i + 2 : close - 1]]
            if args and args[-1] == "*":
                emit(t.line, "R4",
                     f"std::{text} over a raw pointer type orders/hashes by address; "
                     "key on a stable id instead")
            i = close
            continue
        if text in ("map", "set", "multimap", "multiset", "priority_queue") and nxt == "<":
            close = skip_template_args(toks, i + 1)
            args = [x.text for x in toks[i + 2 : close - 1]]
            # first template argument ends with '*' -> pointer-keyed
            depth = 0
            first_arg = []
            for a in args:
                if a == "<":
                    depth += 1
                elif a == ">":
                    depth -= 1
                elif a == "," and depth == 0:
                    break
                first_arg.append(a)
            if first_arg and first_arg[-1] == "*":
                emit(t.line, "R4",
                     f"'{text}' keyed on a raw pointer type; the comparator orders by "
                     "address, which differs run to run - key on a stable id")
            i = close
            continue

        i += 1

    # Stale annotations: warn (do not fail) so refactors do not leave lies.
    for ann in src.annotations.values():
        if not ann.used and ann.tag in TAG_TO_RULE:
            print(
                f"{src.path}:{ann.line}: warning: DETLINT({ann.tag}) annotation "
                "suppresses nothing (stale?)",
                file=sys.stderr,
            )
    return findings


# Keywords that may directly precede a function call; any *other* identifier
# before `name(` marks a declaration (`long time() const { ... }`) or a
# constructor-style initializer, not a libc call.
CALL_PRECEDING_KEYWORDS = {
    "return", "else", "do", "case", "goto", "throw", "new", "delete",
    "co_return", "co_yield", "co_await", "not", "and", "or",
}


def is_call_site(prev: str, prev2: str) -> bool:
    """True when `name(` with these preceding tokens reads as a call."""
    if prev in (".", "->"):
        return False  # member access on some object: not the libc symbol
    if prev == "::":
        # `std::time(...)` and global `::time(...)` are the libc symbol;
        # `Foo::time(` is an out-of-line member definition or qualified call.
        return prev2 == "std" or not re.fullmatch(r"[A-Za-z_]\w*", prev2 or "")
    if re.fullmatch(r"[A-Za-z_]\w*", prev) and prev not in CALL_PRECEDING_KEYWORDS:
        return False  # `long time(` - a declaration
    return True


def skip_parens(tokens, i):
    """tokens[i] == '('; returns index one past the matching ')'."""
    depth = 0
    n = len(tokens)
    while i < n:
        t = tokens[i].text
        if t == "(":
            depth += 1
        elif t == ")":
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return n


def find_top_level_colon(tokens):
    """Index of the range-for ':' at depth 0 (None for classic for-loops)."""
    depth = 0
    for k, t in enumerate(tokens):
        if t.text in ("(", "[", "{"):
            depth += 1
        elif t.text in (")", "]", "}"):
            depth -= 1
        elif t.text == ":" and depth == 0:
            return k
        elif t.text == ";" and depth == 0:
            return None  # classic for-loop
    return None


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------


def collect_paths(root: str, roots, compile_commands):
    """Scan set: walked roots plus repo-owned TUs from compile_commands."""
    paths = set()
    for r in roots:
        full = os.path.join(root, r)
        if os.path.isfile(full):
            paths.add(os.path.normpath(full))
        elif os.path.isdir(full):
            for dirpath, _dirnames, filenames in os.walk(full):
                for fn in filenames:
                    if os.path.splitext(fn)[1] in SOURCE_EXTS:
                        paths.add(os.path.normpath(os.path.join(dirpath, fn)))
    if compile_commands:
        try:
            with open(compile_commands, encoding="utf-8") as fh:
                entries = json.load(fh)
        except (OSError, json.JSONDecodeError) as e:
            print(f"detlint: cannot read {compile_commands}: {e}", file=sys.stderr)
            sys.exit(2)
        rootnorm = os.path.normpath(os.path.abspath(root))
        for entry in entries:
            f = entry.get("file", "")
            if not os.path.isabs(f):
                f = os.path.join(entry.get("directory", ""), f)
            f = os.path.normpath(f)
            # Only repo-owned TUs inside the scan roots; system/third-party
            # TUs are not subject to the contract.
            if f.startswith(rootnorm) and os.path.splitext(f)[1] in SOURCE_EXTS:
                relf = os.path.relpath(f, rootnorm).replace(os.sep, "/")
                if any(relf == r or relf.startswith(r.rstrip("/") + "/") for r in roots):
                    paths.add(f)
    return sorted(paths)


def run_lint(root, roots, compile_commands, allowlist, fmt, list_annotations=False):
    paths = collect_paths(root, roots, compile_commands)
    if not paths:
        print("detlint: no source files found", file=sys.stderr)
        return 2
    files = []
    for p in paths:
        rel = os.path.relpath(p, root).replace(os.sep, "/")
        try:
            with open(p, encoding="utf-8", errors="replace") as fh:
                text = fh.read()
        except OSError as e:
            print(f"detlint: cannot read {p}: {e}", file=sys.stderr)
            return 2
        files.append(lex_file(p, rel, text))

    index = build_decl_index(files)
    findings = []
    for f in files:
        findings.extend(check_file(f, index, allowlist))
    findings.sort(key=lambda x: (x.path, x.line, x.rule))

    if list_annotations:
        for f in files:
            for ann in sorted(f.annotations.values(), key=lambda a: a.line):
                if ann.tag in TAG_TO_RULE:
                    print(f"{f.path}:{ann.line}: DETLINT({ann.tag}): {ann.reason}")
        return 0

    if fmt == "json":
        print(json.dumps([vars(x) for x in findings], indent=2))
    else:
        for x in findings:
            print(x.render())
        scanned = len(files)
        if findings:
            print(f"detlint: {len(findings)} finding(s) in {scanned} file(s)")
        else:
            print(f"detlint: clean ({scanned} files scanned)")
    return 1 if findings else 0


# --------------------------------------------------------------------------
# Selftest: golden fixtures with inline EXPECT-DETLINT assertions
# --------------------------------------------------------------------------


def run_selftest(testdata: str) -> int:
    roots = sorted(
        d for d in os.listdir(testdata) if os.path.isdir(os.path.join(testdata, d))
    )
    # Fixtures mirror the real allowlist shape: anything under `allowlisted/`
    # stands in for src/db/io_shim//bench//tools/.
    allowlist = {"R2": ["allowlisted/"]}
    paths = collect_paths(testdata, roots, None)
    files = []
    for p in paths:
        rel = os.path.relpath(p, testdata).replace(os.sep, "/")
        with open(p, encoding="utf-8") as fh:
            files.append(lex_file(p, rel, fh.read()))
    index = build_decl_index(files)

    failures = []
    total_expected = 0
    for f in files:
        got = {(x.line, x.rule) for x in check_file(f, index, allowlist)}
        want = set(f.expects)
        total_expected += len(want)
        for line, rule in sorted(want - got):
            failures.append(f"{f.path}:{line}: expected {rule} finding, got none")
        for line, rule in sorted(got - want):
            failures.append(f"{f.path}:{line}: unexpected {rule} finding")
    if failures:
        for msg in failures:
            print(f"FAIL {msg}")
        print(f"detlint selftest: {len(failures)} mismatch(es)")
        return 1
    print(
        f"detlint selftest: OK ({len(files)} fixtures, "
        f"{total_expected} expected diagnostics matched exactly)"
    )
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="determinism lint for the OTP-DB tree")
    ap.add_argument("roots", nargs="*", default=None,
                    help=f"files/dirs to scan relative to --root (default: {DEFAULT_ROOTS})")
    ap.add_argument("--root", default=".", help="repository root (default: cwd)")
    ap.add_argument("--compile-commands", default=None,
                    help="compile_commands.json; adds its repo-owned TUs to the scan set")
    ap.add_argument("--format", choices=("text", "json"), default="text")
    ap.add_argument("--selftest", action="store_true",
                    help="run the golden testdata suite and exit")
    ap.add_argument("--list-annotations", action="store_true",
                    help="print every DETLINT annotation with its rationale")
    args = ap.parse_args(argv)

    if args.selftest:
        testdata = os.path.join(os.path.dirname(os.path.abspath(__file__)), "testdata")
        return run_selftest(testdata)

    roots = args.roots if args.roots else DEFAULT_ROOTS
    return run_lint(args.root, roots, args.compile_commands, DEFAULT_ALLOWLIST,
                    args.format, args.list_annotations)


if __name__ == "__main__":
    sys.exit(main())
