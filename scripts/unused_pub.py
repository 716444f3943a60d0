#!/usr/bin/env python3
"""List public items that nothing but their own unit tests names.

Scans every `pub` / `pub(crate)` `fn`, `struct`, `enum`, `trait`, `type`
and `const` defined in the non-test code of `crates/*/src` and prints
those whose name appears nowhere in the non-test code of `crates/*/src`,
`src/`, `tests/`, `examples/` or `benchmark/src`, apart from the lines
that define an item of that name. Non-test code is everything but the
items carrying `#[cfg(test)]` (test modules, test-only helpers). Comments
are kept, so a doc example counts as a caller. The match is by name, as a
grep would do it: two items of one name count as one.

Usage, from the repository root:

    python3 scripts/unused_pub.py            # one line per unused item
    python3 scripts/unused_pub.py --count    # non-test lines in crates/*/src

The audit prints nothing and exits 0 when every item has a caller;
otherwise it prints `path:line: kind name` per item and exits 1.
"""

import re
import sys
from collections import Counter
from pathlib import Path

# Kept on purpose although only tests name them, each with its reason.
ALLOWLIST = {
    "idle_buffers": "gg-core's frontier tests observe buffer recycling "
    "through it from another crate, so it cannot be #[cfg(test)]",
}

CALLER_DIRS = ["crates/*/src", "src", "tests", "examples", "benchmark/src"]

DEFINITION = re.compile(
    r"^\s*pub(?:\(crate\))?\s+(?:(?:const|unsafe|async)\s+)*"
    r"(fn|struct|enum|trait|type|const)\s+([A-Za-z_][A-Za-z0-9_]*)"
)
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def non_test_lines(path):
    """`(line number, text)` for every line outside a `#[cfg(test)]` item."""
    lines = path.read_text().split("\n")
    kept = []
    i = 0
    while i < len(lines):
        if lines[i].strip() != "#[cfg(test)]":
            kept.append((i + 1, lines[i]))
            i += 1
            continue
        # Skip the attributed item: up to its closing brace, or to the
        # `;` that ends a brace-less item such as a `use`.
        depth, opened = 0, False
        i += 1
        while i < len(lines):
            text = lines[i]
            depth += text.count("{") - text.count("}")
            opened = opened or "{" in text
            i += 1
            if (opened and depth <= 0) or (not opened and text.rstrip().endswith(";")):
                break
    return kept


def code_of(lines):
    """The code of `lines` with comments cut, keeping doc-example code."""
    code = []
    in_example = False
    for number, text in lines:
        stripped = text.strip()
        if stripped.startswith(("///", "//!")):
            doc = stripped[3:].strip()
            if doc.startswith("```"):
                in_example = not in_example
            elif in_example:
                code.append((number, doc))
            continue
        if stripped.startswith("//"):
            continue
        cut = text.find("//")
        if cut >= 0 and text[:cut].count('"') % 2 == 0:
            text = text[:cut]
        code.append((number, text))
    return code


def rust_files(pattern):
    return sorted(p for d in Path(".").glob(pattern) for p in d.rglob("*.rs"))


def main():
    crate_files = rust_files("crates/*/src")
    if sys.argv[1:] == ["--count"]:
        print(sum(len(non_test_lines(p)) for p in crate_files))
        return 0

    definitions = []
    for path in crate_files:
        for number, text in code_of(non_test_lines(path)):
            m = DEFINITION.match(text)
            if m:
                definitions.append((path, number, m.group(1), m.group(2), text))

    names = Counter()
    for pattern in CALLER_DIRS:
        for path in rust_files(pattern):
            for _, text in code_of(non_test_lines(path)):
                names.update(WORD.findall(text))
    for _, _, _, name, text in definitions:
        names[name] -= WORD.findall(text).count(name)

    unused = [
        (path, number, kind, name)
        for path, number, kind, name, _ in definitions
        if names[name] <= 0 and name not in ALLOWLIST
    ]
    for path, number, kind, name in unused:
        print(f"{path}:{number}: {kind} {name}")
    return 1 if unused else 0


if __name__ == "__main__":
    sys.exit(main())
