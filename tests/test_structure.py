"""Structure: one least-eigenvalue routine, no matrix inverse in the model, and
``cli`` alone writes text.

Every module of the package is parsed with ``ast``.  The smallest eigenvalue
of a symmetric stack is asked for by the feasibility scans, the solver's step
lengths, its Z >= 0 check and the density's semidefinite rule; all of them go
through ``model._least_eigs``, the only caller of ``eigvalsh``, so a second
Gershgorin prefilter cannot creep in unnoticed.  ``model.py`` decides
"singular" and "indefinite" by the pivots of ``_psd_det``'s own elementwise
Cholesky, whose factor the scores invert, without a LAPACK ``cholesky`` or an
``inv``.  The library returns numbers and arrays; ``cli.py`` alone opens files,
prints and formats.  Sample CSVs and density TSVs get their numbers from
``cli._format_rows``, the only code with a ``.17g`` format, so a per-value
writer cannot creep back in beside it, and ``analysis.py`` neither builds text
nor holds a result class.
"""

import ast
import pathlib

import sgm

PACKAGE = pathlib.Path(sgm.__file__).parent


class _Scoped(ast.NodeVisitor):
    """Collects the dotted name of the definition enclosing each hit in ``found``."""

    def __init__(self):
        self.scope, self.found = [], []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef


class _Calls(_Scoped):
    """The enclosing definitions of every call to a function of a given name,
    as ``np.linalg.name(...)``, ``scipy.linalg.name(...)`` or ``name(...)``."""

    def __init__(self, name):
        super().__init__()
        self.name = name

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


class _Formats(_Scoped):
    """The enclosing definitions of every string constant that holds a ``.17g``
    format, as ``"%.17g"`` or an f-string's ``:.17g``; docstrings are not code."""

    def __init__(self, tree):
        super().__init__()
        self.docstrings = {
            id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
            and ast.get_docstring(node, clean=False) is not None
        }

    def visit_Constant(self, node):
        if isinstance(node.value, str) and ".17g" in node.value and id(node) not in self.docstrings:
            self.found.append(".".join(self.scope) or "<module>")


def formats():
    """(module file, enclosing definition) of every ``.17g`` format in the package."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        visitor = _Formats(tree)
        visitor.visit(tree)
        found += [(path.name, scope) for scope in visitor.found]
    return found


def test_eigvalsh_is_called_only_in_least_eigs():
    assert calls("eigvalsh") == [("model.py", "_least_eigs")]


def test_model_calls_no_inverse():
    assert [c for c in calls("inv") if c[0] == "model.py"] == []


def test_model_calls_no_cholesky():
    assert [c for c in calls("cholesky") if c[0] == "model.py"] == []


def test_17g_is_formatted_only_in_format_rows():
    assert formats() == [("cli.py", "_format_rows")]


def test_only_cli_opens_files_and_prints():
    assert {module for module, _ in calls("open") + calls("print")} == {"cli.py"}


def test_analysis_builds_no_text():
    tree = ast.parse((PACKAGE / "analysis.py").read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "dataclasses" not in imported
    for name in ("dataclass", "encode", "decode", "join", "tobytes", "translate"):
        assert [c for c in calls(name) if c[0] == "analysis.py"] == [], name


def test_cli_reads_no_private_name_of_analysis():
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    private = [node.attr for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
               and node.value.id == "analysis" and node.attr.startswith("_")]
    assert private == []
