"""Print each statement of `src/lrmt` that no tier-1 test runs.

    python tests/unreached.py [PYTEST_ARGS...]

It runs the tier-1 suite in this process, as the tier-1 command does from
the repository root, under a `sys.settrace` line collector that records
only the lines of `src/lrmt`, whose package it imports from this checkout.
A statement is executable when one of its own lines (its body's statements
left out) holds bytecode, and reached when one of them ran.  It then prints
`path:line: source` for each executable statement that was not reached, and
a count.  Extra arguments go to pytest, e.g. a test path to trace less.

- The reference-cycle tests are deselected (`-k 'not reference_cycle'`):
  the tracer's frames hold references, so they fail under it.
- Code that runs in a subprocess is not seen, so what only a subprocess
  runs is listed as unreached.
- Tracing costs time: on a 2-core x86 machine (Python 3.11, one BLAS
  thread) the suite took 116 s under it and 87 s without it.

Standard library and pytest only.  Not a test module; pytest does not
collect it.  It exits with pytest's exit code: when a test fails, the list
may name statements that a passing run reaches.
"""

import ast
import os
import sys
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "lrmt").glob("*.py"))


def _code_lines(code):
    """The lines that hold bytecode in `code` and every code object nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _statements(tree):
    """(statement, its own lines) for each statement of `tree`; a statement's own
    lines run from its first decorator to its end, less its body's statements.
    Docstrings compile to no bytecode and are left out."""
    found = []

    def visit(body):
        for i, node in enumerate(body):
            if (i == 0 and isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, str)):
                continue
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
            own = set(range(first, node.end_lineno + 1))
            blocks = [getattr(node, name, []) for name in ("body", "orelse", "finalbody")]
            blocks += [part.body for name in ("handlers", "cases")
                       for part in getattr(node, name, [])]
            for block in blocks:
                for child in block:
                    own -= set(range(child.lineno, child.end_lineno + 1))
                visit(block)
            found.append((node, own))

    visit(tree.body)
    return found


def main(argv):
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    # read before the run, so that an edit during it cannot shift the lines
    sources = {path: path.read_text(encoding="utf-8") for path in SOURCES}
    hits = defaultdict(set)
    wanted = {str(path) for path in SOURCES}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename in wanted else None

    import pytest

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "--continue-on-collection-errors",
                            "-k", "not reference_cycle", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if not hits:
        print("no line of %s ran: lrmt was imported from elsewhere" % (ROOT / "src" / "lrmt"))
        return 1
    total = unreached = 0
    for path, source in sources.items():
        executable = _code_lines(compile(source, str(path), "exec"))
        lines = source.splitlines()
        for node, own in sorted(_statements(ast.parse(source)), key=lambda s: s[0].lineno):
            if not own & executable:
                continue
            total += 1
            if not own & hits[str(path)]:
                unreached += 1
                print("%s:%d: %s" % (path.relative_to(ROOT), node.lineno,
                                     lines[node.lineno - 1].strip()))
    print("%d of %d executable statements of src/lrmt were not reached" % (unreached, total))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
