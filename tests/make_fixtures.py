"""Regenerate the committed fixture corpus under tests/fixtures.

Deterministic: seeded samplers plus hand-picked documents, emitted
through the canonical serializer.  Run from the repository root:

    PYTHONPATH=src python3 tests/make_fixtures.py [OUTPUT_DIR]

OUTPUT_DIR defaults to tests/fixtures.
"""

import pathlib
import random
import sys

from homcert.complexes import Complex, PeriodicTail
from homcert.documents import emit_document, make_document
from homcert.duality import decompose_resolution
from homcert.flatness import FlatRelation, flat_certificate
from homcert.generator import build_generator, resolve_module
from homcert.matrices import Mat
from homcert.modules import FPModule
from homcert.rings import Fp, Zmod, ZZ
from homcert.samplers import (random_bounded_complex, random_contractible_complex,
                              random_fp_module, random_matrix,
                              random_null_homotopic_map, random_relation)
from homcert.verdicts import Verdict

HERE = pathlib.Path(__file__).parent / "fixtures"
RINGS = {"z": ZZ, "f5": Fp(5), "z4": Zmod(4)}


def main(out: pathlib.Path = HERE):
    out.mkdir(exist_ok=True)
    rng = random.Random(20260823)
    docs = {}

    for tag, ring in RINGS.items():
        for i in range(3):
            docs[f"module_{tag}_{i}"] = make_document(
                ring, "module", random_fp_module(rng, ring))
        for i in range(3):
            docs[f"complex_{tag}_{i}"] = make_document(
                ring, "complex", random_bounded_complex(rng, ring))
        docs[f"matrix_{tag}"] = make_document(
            ring, "matrix", random_matrix(rng, ring, 2, 3))
        a, z = random_relation(rng, ring, 3, 3)
        rel = FlatRelation(ring, a, z)
        docs[f"relation_{tag}"] = make_document(ring, "relation", rel)
        docs[f"certificate_{tag}"] = make_document(
            ring, "certificate", flat_certificate(rel))
        x = random_bounded_complex(rng, ring)
        y = random_bounded_complex(rng, ring)
        docs[f"chain_map_{tag}"] = make_document(
            ring, "chain_map", random_null_homotopic_map(rng, x, y))
        docs[f"contractible_{tag}"] = make_document(
            ring, "complex", random_contractible_complex(rng, ring))

    # hand-picked structured documents
    docs["module_z_cyclic6"] = make_document(
        ZZ, "module", FPModule.cyclic(ZZ, "left", 6))
    docs["module_z4_cyclic2"] = make_document(
        Zmod(4), "module", FPModule.cyclic(Zmod(4), "left", 2))
    docs["module_z12_cyclic4"] = make_document(
        Zmod(12), "module", FPModule.cyclic(Zmod(12), "left", 4))
    docs["module_z_right6"] = make_document(
        ZZ, "module", FPModule.cyclic(ZZ, "right", 6))
    docs["complex_z_mult2"] = make_document(
        ZZ, "complex",
        Complex(ZZ, "left", {-1: 1, 0: 1}, {-1: Mat(ZZ, 1, 1, (2,))}))
    two = Mat(Zmod(4), 1, 1, (2,))
    docs["complex_z4_periodic"] = make_document(
        Zmod(4), "complex",
        Complex(Zmod(4), "left", {0: 1, 1: 1}, {0: two},
                tail_below=PeriodicTail(-1, 0, 1),
                tail_above=PeriodicTail(1, 1, 1)))
    docs["package_z4_cyclic2"] = make_document(
        Zmod(4), "generator_package",
        build_generator(FPModule.cyclic(Zmod(4), "left", 2)))
    docs["package_z_free1"] = make_document(
        ZZ, "generator_package", build_generator(FPModule.free(ZZ, "left", 1)))
    res, _ = resolve_module(FPModule.cyclic(ZZ, "right", 6))
    docs["tree_z_cyclic6"] = make_document(
        ZZ, "build_tree", decompose_resolution(res))
    docs["verdict_sample"] = make_document(
        ZZ, "verdict", Verdict(True, "split_exact", {"window": [-2, 2]}))

    for name, doc in sorted(docs.items()):
        (out / f"{name}.json").write_text(emit_document(doc))
    print(f"wrote {len(docs)} fixtures to {out}")


if __name__ == "__main__":
    main(*map(pathlib.Path, sys.argv[1:2]))
