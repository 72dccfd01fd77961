"""Every elimination of a differential in L2 goes through one engine.

complexes.Forms.form is the one place where complexes.py and
homspaces.py eliminate a differential: a complex and a Hom complex ask
it for cycles, boundaries, exactness and its witness, and a null
homotopy is a solve against its form in degree -1.  This test walks
the AST of both files and fails on any call to `echelon`,
`kernel_right` or `solve_right` outside Forms.form, except at the
allowlisted sites, which eliminate something other than a differential
(each with its reason).  It is a ratchet: an allowlisted site that no
longer eliminates fails it too, until it is taken off.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "homcert"
FILES = ("complexes", "homspaces")
ELIMINATIONS = {"echelon", "kernel_right", "solve_right"}
ENGINE = "complexes.Forms.form"

ALLOWED = {
    "homspaces.induced_h0_map": "one solve against the target's cycles and boundaries "
                                "together",
}


def elimination_sites() -> dict[str, list[int]]:
    """{enclosing function, qualified by module and class: [line of each
    call]} of every call to an elimination entry point."""
    sites: dict[str, list[int]] = {}

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}"
            elif isinstance(child, ast.Call):
                f = child.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name in ELIMINATIONS:
                    sites.setdefault(scope, []).append(child.lineno)
            visit(child, inner)

    for stem in FILES:
        visit(ast.parse((SRC / f"{stem}.py").read_text()), stem)
    return sites


def test_differentials_are_eliminated_only_in_the_engine():
    sites = elimination_sites()
    assert {k: v for k, v in sites.items() if k != ENGINE and k not in ALLOWED} == {}


def test_the_engine_and_each_allowlisted_site_still_eliminate():
    assert {ENGINE, *ALLOWED} - set(elimination_sites()) == set()
