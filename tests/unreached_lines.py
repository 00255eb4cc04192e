"""List the library lines that no test runs.

    PYTHONPATH=src python tests/unreached_lines.py

Runs the test suite in-process under ``sys.settrace``, recording only the
lines executed in ``src/jelonek``. A line counts when the compiler emits
code for it; lines inside ``raise`` statements and ``except`` handlers are
not counted, since the error paths are not required to be reached. Prints
every remaining unreached line and exits 1 when the suite fails or when
there are more than ``CEILING`` of them, so unreached library code cannot
grow back. The file name keeps pytest from collecting it.
"""

import ast
import sys
from pathlib import Path

import pytest

CEILING = 35

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "jelonek"


def _code_lines(code) -> set[int]:
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def countable_lines(path: Path) -> set[int]:
    """Lines with code, minus those inside raise statements and except handlers."""
    source = path.read_text()
    lines = _code_lines(compile(source, str(path), "exec"))
    for node in ast.walk(ast.parse(source, str(path))):
        if isinstance(node, (ast.Raise, ast.ExceptHandler)):
            lines -= set(range(node.lineno, node.end_lineno + 1))
    return lines


def main() -> int:
    prefix = str(LIBRARY) + "/"
    reached: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            reached[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        reached.setdefault(name, set()).add(frame.f_lineno)
        return local

    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors", str(ROOT / "tests")])
    finally:
        sys.settrace(None)

    unreached = []
    for path in sorted(LIBRARY.glob("*.py")):
        missing = countable_lines(path) - reached.get(str(path), set())
        unreached += [f"{path.relative_to(ROOT)}:{line}" for line in sorted(missing)]
    print("\n".join(unreached))
    print(f"{len(unreached)} unreached library lines (ceiling {CEILING})")
    if status != 0:
        return 1
    return int(len(unreached) > CEILING)


if __name__ == "__main__":
    sys.exit(main())
