"""Which lines of `src/nashres` the report digest's ops run, module by module.

The script installs a `sys.settrace` hook before `nashres` is imported, then
runs every op of `tests/report_digest.py` in process (the benchmark's verify,
lift and contact workloads at seeds 7 and 3, and `tsch` and `elim` on every
workload presentation).  A line is executable when a code object compiled
from the module names it in `co_lines()`; it has run when the hook saw a
frame execute it.  For each module the script prints its executable lines,
how many never ran and which, then the total.  It needs only the stdlib:

    PYTHONPATH=src python tests/statement_census.py
"""

from __future__ import annotations

import sys
from pathlib import Path
from types import CodeType

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nashres"
_PREFIX = str(PACKAGE) + "/"

_run: dict = {}  # file name -> the line numbers run in it


def _trace(frame, event, arg):
    """The global hook: trace the frames of nashres code, line by line."""
    filename = frame.f_code.co_filename
    if not filename.startswith(_PREFIX):
        return None
    lines = _run.setdefault(filename, set())
    lines.add(frame.f_lineno)

    def local(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return local

    return local


def executable_lines(path: Path) -> set:
    """Every line number that a code object compiled from path names."""
    found, stack = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        found.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if isinstance(c, CodeType))
    return found


def _ranges(lines) -> str:
    """Sorted line numbers with runs written as first-last."""
    out, lines = [], sorted(lines)
    start = prev = None
    for n in lines + [None]:
        if start is not None and n == prev + 1:
            prev = n
            continue
        if start is not None:
            out.append(str(start) if start == prev else f"{start}-{prev}")
        start = prev = n
    return ", ".join(out)


def census() -> list:
    """The printed lines: the digest, one line per module, then the total."""
    sys.settrace(_trace)
    try:
        import report_digest

        digest = report_digest.digest()
    finally:
        sys.settrace(None)
    out = [f"digest: {digest}"]
    total_executable = total_never = 0
    for path in sorted(PACKAGE.glob("*.py")):
        executable = executable_lines(path)
        never = executable - _run.get(str(path), set())
        total_executable += len(executable)
        total_never += len(never)
        listed = f": {_ranges(never)}" if never else ""
        out.append(f"{path.name}: {len(executable)} executable, {len(never)} never run{listed}")
    out.append(f"total: {total_executable} executable, {total_never} never run")
    return out


if __name__ == "__main__":
    print("\n".join(census()))
