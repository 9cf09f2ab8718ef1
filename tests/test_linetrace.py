"""The report of bench/linetrace.py on a made-up source and hit set."""

import importlib.util
import os

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SPEC = importlib.util.spec_from_file_location("bench_linetrace",
                                               os.path.join(_ROOT, "bench", "linetrace.py"))
linetrace = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(linetrace)

SOURCE = '''"""Module docstring."""

import functools


@functools.cache
def f(x,
      y):
    """Function docstring."""
    if x:
        return y
    return [v for v in (x, y)
            if v]


class C:
    """Class docstring."""

    z = 1
'''


def test_def_class_and_docstring_lines_are_left_out():
    # executable: 3, 10-13 (13 is the comprehension's filter) and 19
    assert linetrace.unexecuted(SOURCE, set()) == [3, 10, 11, 12, 13, 19]


def test_report_lists_the_lines_never_run_per_module():
    sources = {"b.py": SOURCE, "a.py": "x = 1\n"}
    hits = {"b.py": {3, 10, 12, 13}, "a.py": {1}}
    assert linetrace.report(sources, hits) == "a.py: 0 never run\nb.py: 2 never run: 11, 19"


def test_ranges():
    assert linetrace.ranges([57, 74, 75, 80, 102, 103, 104, 105]) == "57, 74-75, 80, 102-105"
    assert linetrace.ranges([]) == ""
