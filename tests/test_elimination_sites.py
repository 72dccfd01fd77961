"""Every elimination of a differential in L2 goes through one engine.

complexes.Forms.kernel and Forms.solve are the one place where
complexes.py and homspaces.py eliminate a differential: they ask
`kernel_right` and `solve_right` about Forms.matrix(n), the kept
restricted differential, whose elimination the matrix keeps.  A complex
and a Hom complex ask them for cycles, boundaries, exactness and its
witness, and a null homotopy is a solve in degree -1.  This test walks
the AST of both files and fails on any call to an elimination entry
point of `matrices` outside those two methods, except at the
allowlisted sites, which eliminate something other than a differential
(each with its reason).  It is a ratchet: an engine method or an
allowlisted site that no longer eliminates fails it too, until it is
taken off.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "homcert"
FILES = ("complexes", "homspaces")
ELIMINATIONS = {"kernel_right", "solve_right", "colspan_canonical", "smith_invariants"}
ENGINE = {"complexes.Forms.kernel", "complexes.Forms.solve"}

ALLOWED = {
    "homspaces.induced_h0_map": "one solve against the target's cycles and boundaries "
                                "together",
    "complexes.split_exactness_check": "the relations among a tail's lowest cycles and "
                                       "their span, the cycle module's presentation",
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
    assert {k: v for k, v in sites.items() if k not in ENGINE and k not in ALLOWED} == {}


def test_the_engine_and_each_allowlisted_site_still_eliminate():
    assert {*ENGINE, *ALLOWED} - set(elimination_sites()) == set()
