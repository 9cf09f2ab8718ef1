"""Structure: one least-eigenvalue routine, and no matrix inverse in the model.

Every module of the package is parsed with ``ast``.  The smallest eigenvalue
of a symmetric stack is asked for by the feasibility scans, the solver's step
lengths, its Z >= 0 check and the density's semidefinite rule; all of them go
through ``model._least_eigs``, the only caller of ``eigvalsh``, so a second
Gershgorin prefilter cannot creep in unnoticed.  ``model.py`` decides
"singular" and "indefinite" by the pivots of ``_psd_det``'s own elementwise
Cholesky, whose factor the scores invert, without a LAPACK ``cholesky`` or an
``inv``.
"""

import ast
import pathlib

import sgm

PACKAGE = pathlib.Path(sgm.__file__).parent


class _Calls(ast.NodeVisitor):
    """The enclosing definitions of every call to a function of a given name,
    as ``np.linalg.name(...)``, ``scipy.linalg.name(...)`` or ``name(...)``."""

    def __init__(self, name):
        self.name, self.scope, self.found = name, [], []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef

    def visit_Call(self, node):
        f = node.func
        if getattr(f, "attr", getattr(f, "id", None)) == self.name:
            self.found.append(".".join(self.scope) or "<module>")
        self.generic_visit(node)


def calls(name):
    """(module file, enclosing definition) of every call to ``name`` in the package."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        visitor = _Calls(name)
        visitor.visit(ast.parse(path.read_text(), filename=str(path)))
        found += [(path.name, scope) for scope in visitor.found]
    return found


def test_eigvalsh_is_called_only_in_least_eigs():
    assert calls("eigvalsh") == [("model.py", "_least_eigs")]


def test_model_calls_no_inverse():
    assert [c for c in calls("inv") if c[0] == "model.py"] == []


def test_model_calls_no_cholesky():
    assert [c for c in calls("cholesky") if c[0] == "model.py"] == []
