"""Every public name in src/homcert has a caller, or a stated reason.

A public name is a module-level function, class or constant, or a
method or dataclass field of a module-level class, whose name does not
start with an underscore.  It has a caller when some `src/homcert`
module (the CLI included) or a `bench/*.py` file reads that name as a
variable, an attribute or a keyword, outside its own definition; import
lines do not count.  Matching is by the bare name, so this is a lower
bound on dead code, not a proof of use.

The allowlist names what only tests and the paper-level acceptance
checks reach, each with its reason.  It is a ratchet: an entry that
gains a caller, or whose name is deleted, fails the test until it is
taken off.  The test only reads `bench/`.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "homcert").glob("*.py"))
BENCH = sorted((ROOT / "bench").glob("*.py"))

ALLOWED = {
    # paper-level constructions and checks: tests, the acceptance battery
    # and the golden verdict digests call them, no CLI command does yet
    "complexes.cone": "the mapping cone; the cone, construction and twisted-sum tests",
    "complexes.null_homotopy_witness": "solves f = ds + sd for a given map; "
                                       "the null-homotopy tests",
    "complexes.Homotopy.bounds": "the multiplication-only check of a homotopy "
                                 "witness; criterion 5",
    "duality.duality_roundtrip_check": "criterion 8: dualizing twice is the identity",
    "generator.h0_hom_equivalence": "HomClasses(P*, Q) = H^0 Hom(M, Q); golden verdict digests",
    "generator.suspension_homology_chain": "criterion 3 and the golden verdict digests",
    "generator.compactness_probe": "the finite coproduct check; golden verdict digests",
    "modules.canonical_double_dual_map": "M -> M** on demand: reflexivity over Z/n, and "
                                         "the comparison map factors through it",
    # kept for a planned caller
    "modules.dualize_map": "Hom(-, R) on maps; ROADMAP item 14 uses it or deletes it",
    # read without naming it
    "flatness.CycleCertificate.preimages": "emitted in the `certified` verdict's bytes "
                                           "through the dataclass fields",
}


def public_definitions():
    """(qualified name, file, first line, last line) per public name."""
    for path in SRC:
        for node in ast.parse(path.read_text()).body:
            found = []
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                found.append((node.name, node))
                if isinstance(node, ast.ClassDef):
                    for member in node.body:
                        if isinstance(member, ast.FunctionDef):
                            found.append((f"{node.name}.{member.name}", member))
                        elif isinstance(member, ast.AnnAssign) and \
                                isinstance(member.target, ast.Name):
                            found.append((f"{node.name}.{member.target.id}", member))
            elif isinstance(node, ast.Assign):
                found += [(t.id, node) for t in node.targets if isinstance(t, ast.Name)]
            for name, at in found:
                if not name.rpartition(".")[2].startswith("_"):
                    yield f"{path.stem}.{name}", path, at.lineno, at.end_lineno


def references():
    """{bare name: [(file, line)]} of every read in src/homcert and bench."""
    refs = {}
    for path in SRC + BENCH:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.keyword) and node.arg:
                name = node.arg
            else:
                continue
            refs.setdefault(name, []).append((path, node.lineno))
    return refs


def uncalled():
    refs = references()
    return {qual for qual, path, first, last in public_definitions()
            if not any(p != path or not first <= line <= last
                       for p, line in refs.get(qual.rpartition(".")[2], ()))}


def test_every_public_name_has_a_caller_or_a_reason():
    assert uncalled() - set(ALLOWED) == set()


def test_the_allowlist_names_only_uncalled_public_names():
    defined = {qual for qual, *_ in public_definitions()}
    assert set(ALLOWED) - defined == set(), "deleted: take these off the allowlist"
    assert set(ALLOWED) - uncalled() == set(), "called now: take these off the allowlist"
