#!/usr/bin/env python3
"""Stats- and config-convention lint for the emlio source tree.

Three checks. The first two enforce the stats conventions documented in
the comment block above Daemon's counter members in src/core/daemon.h:

1. explicit-ordering: every atomic access in src/ (.load / .store /
   .fetch_add / .fetch_sub / .fetch_or / .exchange /
   .compare_exchange_*) must pass an explicit std::memory_order argument.
   Stats counters are independent relaxed atomics by convention; an
   ordering-free call silently defaults to seq_cst, which both hides the
   author's intent and puts a full fence on a hot path.

2. serializer-drift: every field of a stats struct that has a free-function
   `json::Value to_json(const T&)` serializer must be referenced inside that
   serializer's body. Adding a counter to the struct but not to to_json is
   how dashboards silently lose telemetry. Fields that are deliberately not
   serialized carry `// lint: not-serialized` on their declaration line.

3. dead-config: every field of a `*Config` / `*Options` struct in src/ must
   be read somewhere in src/ or tools/. A read is a `.field` or `->field`
   that is not the target of a plain assignment (to the field itself or to
   one of its members). A field that is only ever written is an option
   that changes nothing: delete it, or make the code honour it.

Usage: tools/lint_stats.py [repo_root]     (exit 0 clean, 1 findings)
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

ATOMIC_CALL = re.compile(
    r"\.(load|store|fetch_add|fetch_sub|fetch_or|fetch_and|exchange|"
    r"compare_exchange_weak|compare_exchange_strong)\s*\("
)
TO_JSON_DEF = re.compile(
    r"json::Value\s+to_json\s*\(\s*const\s+([A-Za-z_][\w:]*)\s*&\s*(\w+)\s*\)\s*\{"
)
# A field declaration: `type name;`, `type name = init;` or `type name{init};`
# — no '(' before the name (rejects methods), optionally preceded by
# qualifiers. The prefix must begin with an identifier character so a bare
# assignment statement (`last_ns = now;`) inside an inline method body
# cannot pass as a declaration whose "type" is whitespace.
FIELD_DECL = re.compile(
    r"^\s*(?!using|typedef|static|friend|return|if|for|while|switch)"
    r"([A-Za-z_][\w:<>,\s\*&]*?)[\s&\*]([A-Za-z_]\w*)\s*(?:=[^;]*|\{[^;]*\})?;"
)
OPT_OUT = "lint: not-serialized"
CONFIG_STRUCT = re.compile(r"\bstruct\s+(\w*(?:Config|Options))\b[^;{]*\{")


def strip_comments(text: str) -> str:
    text = re.sub(r"/\*.*?\*/", "", text, flags=re.S)
    return re.sub(r"//[^\n]*", "", text)


def balanced_body(text: str, open_brace: int) -> str:
    """Return the text between the brace at `open_brace` and its match."""
    depth = 0
    for i in range(open_brace, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return text[open_brace + 1 : i]
    return text[open_brace + 1 :]


def check_orderings(sources: list[Path]) -> list[str]:
    findings = []
    for path in sources:
        for lineno, raw in enumerate(path.read_text().splitlines(), 1):
            line = raw.split("//")[0]
            for m in ATOMIC_CALL.finditer(line):
                # The ordering argument may be spelled std::memory_order_* or
                # memory_order::*; look in the rest of the statement.
                tail = line[m.end() :]
                if "memory_order" not in tail:
                    findings.append(
                        f"{path}:{lineno}: atomic .{m.group(1)}() without explicit "
                        f"memory_order (stats counters are relaxed by convention)"
                    )
    return findings


def find_struct_fields(sources: list[Path], name: str) -> tuple[Path | None, list[str]]:
    """Locate `struct <name> {` and return its non-opted-out field names."""
    short = name.split("::")[-1]
    decl = re.compile(r"\bstruct\s+" + re.escape(short) + r"\b[^;{]*\{")
    for path in sources:
        text = path.read_text()
        m = decl.search(text)
        if not m:
            continue
        body = balanced_body(text, m.end() - 1)
        fields = []
        for line in body.splitlines():
            if OPT_OUT in line:
                continue
            code = line.split("//")[0]
            if "(" in code.split("=")[0]:  # method / ctor / function pointer
                continue
            fm = FIELD_DECL.match(code)
            if fm:
                fields.append(fm.group(2))
        return path, fields
    return None, []


def check_serializers(sources: list[Path]) -> list[str]:
    findings = []
    for path in sources:
        text = path.read_text()
        for m in TO_JSON_DEF.finditer(text):
            type_name, param = m.group(1), m.group(2)
            body = strip_comments(balanced_body(text, m.end() - 1))
            struct_path, fields = find_struct_fields(sources, type_name)
            if struct_path is None:
                continue  # vector overloads etc. resolve to no struct
            for field in fields:
                if not re.search(r"\b" + re.escape(param) + r"\." + re.escape(field) + r"\b",
                                 body):
                    findings.append(
                        f"{path}: to_json(const {type_name}&) does not serialize "
                        f"field '{field}' (declared in {struct_path.name}; add it or "
                        f"mark the field '// {OPT_OUT}')"
                    )
    return findings


def check_config_reads(sources: list[Path], readers: list[Path]) -> list[str]:
    texts = [strip_comments(p.read_text()) for p in readers]
    findings = []
    for path in sources:
        text = strip_comments(path.read_text())
        for m in CONFIG_STRUCT.finditer(text):
            for line in balanced_body(text, m.end() - 1).splitlines():
                if "(" in line.split("=")[0]:  # method / ctor / function pointer
                    continue
                fm = FIELD_DECL.match(line)
                if not fm:
                    continue
                field = fm.group(2)
                # `x.f = v` and `x.f.g = v` both write f; `x.f == v` reads it.
                read = re.compile(
                    r"(?:\.|->)" + re.escape(field) + r"\b(?!(?:\s*(?:\.|->)\s*\w+)*\s*=[^=])"
                )
                if not any(read.search(t) for t in texts):
                    findings.append(
                        f"{path}: {m.group(1)}::{field} is never read in src/ or tools/ "
                        f"(an option nobody reads changes nothing)"
                    )
    return findings


def main() -> int:
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent
    src = root / "src"
    sources = sorted(p for p in src.rglob("*") if p.suffix in (".h", ".cpp"))
    if not sources:
        print(f"lint_stats: no sources under {src}", file=sys.stderr)
        return 2
    tools = sorted(p for p in (root / "tools").rglob("*") if p.suffix in (".h", ".cpp"))
    findings = list(
        dict.fromkeys(
            check_orderings(sources)
            + check_serializers(sources)
            + check_config_reads(sources, sources + tools)
        )
    )
    for f in findings:
        print(f)
    print(f"lint_stats: {len(sources)} files, {len(findings)} finding(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
