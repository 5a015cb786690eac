#!/usr/bin/env python3
"""Line check: which lines of src/splitopt does no test run?

Usage: python tools/untested_lines.py [PYTEST_ARGS...]   (default: -q -p no:cacheprovider)

The script runs pytest in this process, from the repository root, under
`sys.settrace` and `threading.settrace`, and records the lines run in frames
whose file lies in src/splitopt.  Tracing starts before pytest imports the
package, so module-level lines count.  A line is executable when some code
object compiled from its file, nested ones included, maps an instruction to
it (`co_lines()`).  The script prints each executable line that no test ran,
with its text, and marks as exempt the `raise NotImplementedError` bodies
of abstract methods and the body of the `if __name__ == "__main__":` guard.
It exits 1 when a line outside those exemptions is listed, and 2 when pytest
itself fails, the package was imported from somewhere else, or a file of the
package changed during the run.  Only the standard library is used; tracing
about doubles the suite's run time.
"""

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "splitopt"
FILES = sorted(str(path) for path in PACKAGE.glob("*.py"))


def executable_lines(source, filename):
    """The line numbers that some code object of ``source`` maps an instruction to."""
    lines, codes = set(), [compile(source, filename, "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def _is_not_implemented(node):
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"


def exemptions(source):
    """Line number -> reason, for the lines the check does not ask a test to run."""
    exempt = {}
    tree = ast.parse(source)
    for node in tree.body:
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'":
            for stmt in node.body:
                exempt.update(dict.fromkeys(range(stmt.lineno, stmt.end_lineno + 1),
                                            "__main__ guard"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None and _is_not_implemented(node):
            exempt.update(dict.fromkeys(range(node.lineno, node.end_lineno + 1),
                                        "abstract method"))
    return exempt


def run_traced(pytest_args):
    """Run pytest under the tracer; return its exit status and the (file, line) pairs run."""
    ran = set()
    wanted = {}  # co_filename -> whether it is a file of the package

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in wanted:
            wanted[filename] = os.path.realpath(filename) in FILES
        return local if wanted[filename] else None

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return status, {(os.path.realpath(name), line) for name, line in ran}


def main(argv):
    os.chdir(ROOT)
    sources = {filename: Path(filename).read_text() for filename in FILES}
    status, ran = run_traced(argv or ["-q", "-p", "no:cacheprovider"])
    package = sys.modules.get("splitopt")
    if status != 0 or package is None or Path(package.__file__).parent.resolve() != PACKAGE:
        print(f"untested lines: not reported, pytest exited {int(status)} or imported "
              f"splitopt from {getattr(package, '__file__', None)}", file=sys.stderr)
        return 2
    changed = [name for name, source in sources.items() if Path(name).read_text() != source]
    if changed:  # the recorded line numbers belong to the old text
        print(f"untested lines: not reported, changed during the run: {', '.join(changed)}",
              file=sys.stderr)
        return 2
    total = listed = unexempt = 0
    for filename, source in sources.items():
        text = source.splitlines()
        exempt = exemptions(source)
        lines = executable_lines(source, filename)
        total += len(lines)
        for line in sorted(lines):
            if (filename, line) in ran:
                continue
            listed += 1
            unexempt += line not in exempt
            note = f"  [exempt: {exempt[line]}]" if line in exempt else ""
            print(f"{os.path.relpath(filename, ROOT)}:{line}: {text[line - 1].strip()}{note}")
    print(f"{total} executable lines in src/splitopt; {listed} not run by a test, "
          f"{listed - unexempt} of them exempt")
    return 1 if unexempt else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
