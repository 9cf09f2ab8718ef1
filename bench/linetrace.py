"""Lines of ``src/sgm`` that a pytest run never executes.

Run from the root of the tree; any arguments go to pytest (none: the whole
suite, as ``pyproject.toml``'s ``testpaths`` lists it):

    python3 bench/linetrace.py tests/test_cli.py -x

pytest runs in this process under a ``sys.settrace`` hook (and
``threading.settrace`` for threads) that follows only frames whose code lives
in ``src/sgm`` and records each line they execute.  Afterwards every module
of the package is compiled; its executable lines are the ``co_lines`` of the
module's code object and of every code object nested in it, and those that
never ran are printed per module.  ``def`` and ``class`` statements (with
their decorators and signature lines) and docstrings are left out: they run
at import or never raise a line event.  Code run in a subprocess is not
traced, so lines that only the cold-start tests, perfbench's smoke runs or a
process pool reach are listed as never run.  Only the standard library is
used; the ``coverage`` package is not needed.  The exit code is pytest's.
"""

from __future__ import annotations

import ast
import os
import sys
import threading

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "sgm")


def executable_lines(code) -> set[int]:
    """Line numbers of the instructions of ``code`` and its nested code objects."""
    lines = {line for _, _, line in code.co_lines() if line}  # None, or 0 for RESUME
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= executable_lines(const)
    return lines


def _excluded_lines(tree) -> set[int]:
    """Lines of def and class statements up to their body, and of docstrings."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            out.update(range(first, node.body[0].lineno))
        if isinstance(node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            head = node.body[0] if node.body else None
            if (isinstance(head, ast.Expr) and isinstance(head.value, ast.Constant)
                    and isinstance(head.value.value, str)):
                out.update(range(head.lineno, head.end_lineno + 1))
    return out


def unexecuted(source: str, ran: set[int], filename: str = "<source>") -> list[int]:
    """The executable lines of ``source``, def, class and docstring lines left
    out, that are not in ``ran``, in order."""
    code = compile(source, filename, "exec")
    lines = executable_lines(code) - _excluded_lines(ast.parse(source, filename))
    return sorted(lines - ran)


def ranges(lines: list[int]) -> str:
    """Sorted line numbers as ``57, 74-75, 80``."""
    spans = []
    for line in lines:
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(f"{a}" if a == b else f"{a}-{b}" for a, b in spans)


def report(sources: dict[str, str], hits: dict[str, set[int]]) -> str:
    """One line per module, ``name: count never run: ranges``, from the source of
    each module and the lines recorded as run in it."""
    out = []
    for name in sorted(sources):
        missed = unexecuted(sources[name], hits.get(name, set()), name)
        out.append(f"{name}: {len(missed)} never run" + (f": {ranges(missed)}" if missed else ""))
    return "\n".join(out)


def trace(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest with ``pytest_args`` under the line hook; its exit code and
    the lines run per module file name."""
    hits: dict[str, set[int]] = {}
    inside: dict[str, set[int] | None] = {}  # co_filename -> its hit set, None outside

    def local(frame, event, arg):
        if event == "line":
            inside[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def hook(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in inside:
            path = os.path.abspath(filename)
            in_package = os.path.dirname(path) == PACKAGE
            inside[filename] = hits.setdefault(os.path.basename(path), set()) if in_package else None
        return local if inside[filename] is not None else None

    sys.path.insert(0, os.path.join(ROOT, "src"))
    threading.settrace(hook)
    sys.settrace(hook)
    try:
        code = pytest.main(["-p", "no:cacheprovider", *pytest_args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), hits


def main(argv=None) -> int:
    os.chdir(ROOT)
    code, hits = trace(sys.argv[1:] if argv is None else argv)
    sources = {}
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
                sources[name] = fh.read()
    print(report(sources, hits))
    return code


if __name__ == "__main__":
    sys.exit(main())
