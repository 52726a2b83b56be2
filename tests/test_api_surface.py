"""Every module-level name of the package, and every method of its
classes, is used by the program.

A function, class or constant defined at module level in src/jjswitch, and
a method of a class defined there, must be referenced somewhere in src/ or
bench/ besides its own definition; the tests alone do not keep a name
alive.  Dunder names are exempt.  Every name an __all__ list exports must
be bound in its module, or `from module import *` fails.

References are found by a word search over the code of every other
top-level statement, with docstrings, comments and __all__ lists removed,
so names that bench/ reaches by string (setattr on a module attribute)
still count, and a function that only names itself does not.  A file that
defines a name of its own is not searched for another module's name of the
same spelling.  A method counts as referenced by the rest of its class,
the module's other statements and other files, under the same rules.
"""

import ast
import importlib
import os
import re
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "jjswitch")


def _sources() -> dict[str, ast.Module]:
    trees = {}
    for folder in (PACKAGE, os.path.join(ROOT, "bench")):
        for name in sorted(os.listdir(folder)):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                with open(path, encoding="utf-8") as fh:
                    trees[path] = ast.parse(fh.read(), path)
    return trees


def _is_docstring_or_all(node: ast.stmt) -> bool:
    if isinstance(node, ast.Expr):
        return isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
    )


def _bound(node: ast.stmt) -> list[str]:
    """Names a top-level statement binds by def, class or assignment,
    dunder names left out."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        names = [t.id for t in targets if isinstance(t, ast.Name)]
    else:
        names = []
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def _methods(node: ast.stmt) -> list[str]:
    """Method names a top-level class statement defines, dunder names left
    out."""
    if not isinstance(node, ast.ClassDef):
        return []
    return [
        m.name
        for m in node.body
        if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (m.name.startswith("__") and m.name.endswith("__"))
    ]


def _words(node: ast.stmt, without: str = "") -> Counter:
    """Word counts of a statement's code, docstrings removed, and for a
    class, the method named `without` removed too."""
    node = ast.parse(ast.unparse(node)).body[0]  # a copy to strip
    if isinstance(node, ast.ClassDef) and without:
        node.body = [m for m in node.body if getattr(m, "name", None) != without]
    for inner in ast.walk(node):
        body = getattr(inner, "body", None)
        if isinstance(body, list):
            inner.body = [s for s in body if not _is_docstring_or_all(s)] or [ast.Pass()]
    return Counter(re.findall(r"\w+", ast.unparse(node)))


def unreferenced() -> list[str]:
    """'module: name' of every module-level name of the package, and
    'module: Class.method' of every method of its classes, that no other
    statement of src/ or bench/ mentions."""
    nodes = {
        path: [node for node in tree.body if not _is_docstring_or_all(node)]
        for path, tree in _sources().items()
    }
    statements = {
        path: [(_bound(node), _words(node)) for node in stmts] for path, stmts in nodes.items()
    }
    defines = {path: {n for names, _ in stmts for n in names} for path, stmts in statements.items()}
    missing = []
    for path, stmts in statements.items():
        if os.path.dirname(path) != PACKAGE:
            continue
        for i, (names, _) in enumerate(stmts):
            for name in names:
                here = any(words[name] for j, (_, words) in enumerate(stmts) if j != i)
                elsewhere = any(
                    words[name]
                    for other, others in statements.items()
                    if other != path and name not in defines[other]
                    for _, words in others
                )
                if not (here or elsewhere):
                    missing.append(f"{os.path.basename(path)}: {name}")
        for i, node in enumerate(nodes[path]):
            for method in _methods(node):
                here = _words(node, without=method)[method] or any(
                    words[method] for j, (_, words) in enumerate(stmts) if j != i
                )
                elsewhere = any(
                    words[method]
                    for other, others in statements.items()
                    if other != path and method not in defines[other]
                    for _, words in others
                )
                if not (here or elsewhere):
                    missing.append(f"{os.path.basename(path)}: {node.name}.{method}")
    return missing


def test_every_module_level_name_is_used():
    assert unreferenced() == []


def test_every_exported_name_is_bound():
    unbound = []
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            module_name = "jjswitch" if name == "__init__.py" else f"jjswitch.{name[:-3]}"
            module = importlib.import_module(module_name)
            exported = getattr(module, "__all__", ())
            unbound += [f"{name}: {n}" for n in exported if not hasattr(module, n)]
    assert unbound == []
