"""Every Sphinx cross-reference in a package docstring names something
that exists."""

import ast
import importlib
import pathlib
import re

import boundary_forge

PACKAGE = pathlib.Path(boundary_forge.__file__).parent
REFERENCE = re.compile(r":(func|class|meth|attr):`~?\.?([A-Za-z_][\w.]*)`")


def docstrings(tree):
    """(docstring, enclosing class or None) for the module, every class
    and every function."""
    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield ast.get_docstring(child), child.name
                yield from walk(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield ast.get_docstring(child), owner
                yield from walk(child, owner)

    yield ast.get_docstring(tree), None
    yield from walk(tree, None)


def resolves(dotted: str, scopes) -> bool:
    for scope in scopes:
        target = scope
        for part in dotted.split("."):
            target = getattr(target, part, None)
            if target is None:
                break
        else:
            return True
    return False


def references():
    for path in sorted(PACKAGE.glob("*.py")):
        name = "boundary_forge" if path.stem == "__init__" else f"boundary_forge.{path.stem}"
        module = importlib.import_module(name)
        for doc, owner in docstrings(ast.parse(path.read_text(encoding="utf-8"))):
            for role, dotted in REFERENCE.findall(doc or ""):
                scopes = [module, boundary_forge]
                if owner is not None:
                    scopes.insert(0, getattr(module, owner))
                yield f"{path.name}: :{role}:`{dotted}`", dotted, scopes


def test_docstring_references_resolve():
    refs = list(references())
    assert len(refs) > 30  # the pattern still finds the references
    missing = [label for label, dotted, scopes in refs if not resolves(dotted, scopes)]
    assert not missing, f"docstrings name what does not exist: {missing}"


def test_unresolved_reference_is_caught():
    assert not resolves("CoeffMatrix", [boundary_forge.twovar, boundary_forge])
    assert not resolves("TwoVarPolyMatrix.at_zeta_minus_eta",
                        [boundary_forge.twovar])
    assert resolves("PolyMatrix.coeff_rows", [boundary_forge.twovar])
