"""List the statements of ``src/bbl`` that the tier-1 tests never run.

Runs pytest in this process under a ``sys.settrace`` line tracer limited to
``src/bbl`` and prints each statement that no line event reached, as
``path:line: source``, then their count.  Standard library only; it gates
nothing and exits 0 whatever the tests do.  From the repository root:

    PYTHONPATH=src python tools/unrun_lines.py [pytest arguments]
"""

import ast
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted((ROOT / "src" / "bbl").glob("*.py"))
hits = {str(path): set() for path in FILES}


def trace(frame, event, arg):
    lines = hits.get(frame.f_code.co_filename)
    if lines is None:
        return None
    lines.add(frame.f_lineno)
    return trace  # traces the lines of the frame it was called for


def statements(tree):
    """``(first, last)`` lines of each statement that compiles to code: a compound
    statement's range is its header (decorators included), a simple one its own lines."""
    for node in ast.walk(tree):
        if (not isinstance(node, ast.stmt) or isinstance(node, (ast.Try, ast.Global, ast.Nonlocal))
                or isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)):
            continue  # no code of its own, or a docstring
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        yield first, max(node.lineno, body[0].lineno - 1) if body else node.end_lineno


if __name__ == "__main__":
    sys.settrace(trace)
    threading.settrace(trace)
    pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors", *sys.argv[1:]])
    sys.settrace(None)
    unrun = 0
    for path in FILES:
        source, lines = path.read_text().splitlines(), hits[str(path)]
        for first, last in sorted(statements(ast.parse("\n".join(source)))):
            if not lines.intersection(range(first, last + 1)):
                unrun += 1
                print(f"{path.relative_to(ROOT)}:{first}: {source[first - 1].strip()}")
    print(f"{unrun} statements of src/bbl never ran")
