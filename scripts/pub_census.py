#!/usr/bin/env python3
"""Census of `pub` items nobody calls (ROADMAP item 5, "Census first").

Lists every `pub fn`, `pub struct`, `pub enum`, `pub trait`, `pub type`,
`pub const` and `pub static` declared under `crates/*/src` whose name
occurs as a whole word nowhere else in `crates/`, `tests/`, `examples/`
or `benchmark/` — no caller, no test, no doc link. A name match is not a
call graph: a common name (`new`, `len`) always finds a namesake, so this
under-reports; what it does report is dead. Trait-impl methods are not
`pub` and macros are not scanned. Prints a report; always exits 0.

    python3 scripts/pub_census.py [repo-root]
"""
import collections
import pathlib
import re
import sys

DECL = re.compile(
    r"^\s*pub\s+(?:const\s+|async\s+|unsafe\s+)*"
    r"(fn|struct|enum|trait|type|const|static)\s+(?:mut\s+)?([A-Za-z_][A-Za-z0-9_]*)"
)
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
SEARCH_ROOTS = ("crates", "tests", "examples", "benchmark")


def rust_files(root, tops):
    for top in tops:
        for path in sorted((root / top).rglob("*.rs")):
            if "target" not in path.parts:
                yield path


def main():
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".").resolve()
    uses = collections.Counter()
    decls = []
    for path in rust_files(root, SEARCH_ROOTS):
        text = path.read_text(encoding="utf-8", errors="replace")
        uses.update(WORD.findall(text))
        rel = path.relative_to(root)
        if rel.parts[0] == "crates" and "src" in rel.parts:
            for lineno, line in enumerate(text.splitlines(), 1):
                m = DECL.match(line)
                if m:
                    decls.append((str(rel), lineno, m.group(1), m.group(2)))
    # A declaration contributes one occurrence of its own name; a name
    # declared twice (two types' `fn foo`) needs a use beyond both.
    declared = collections.Counter(name for *_, name in decls)
    dead = [d for d in decls if uses[d[3]] <= declared[d[3]]]
    print(f"pub census: {len(decls)} pub items under crates/*/src, "
          f"{len(dead)} with no other occurrence of their name")
    for rel, lineno, kind, name in dead:
        print(f"  {rel}:{lineno}: pub {kind} {name}")


if __name__ == "__main__":
    main()
