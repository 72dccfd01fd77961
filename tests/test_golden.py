"""Golden digests of emitted documents.

Pins the exact bytes of the `resolve`, `generator` and `decompose`
output on every fixture module, of `decompose --depth 100` on the
periodic cyclic modules Z/4 / (2) and Z/12 / (4), of the verdict documents of the
HomClasses checks on seeded inputs, of `split-check` (with and
without `--bound`) verdicts on fixture complexes, and of the kernels,
solves, canonical spans and Smith invariants of seeded `elim`-sized
matrices, as sha256 digests.  A refactor
that is meant to keep behaviour must leave every digest unchanged; a
change that deliberately alters a canonical form regenerates them with

    PYTHONPATH=src python tests/test_golden.py

and says so in CHANGES.md.
"""

import contextlib
import hashlib
import io
import pathlib
import random

import pytest

from homcert.cli import main
from homcert.documents import emit_document, make_document
from homcert.matrices import (Mat, colspan_canonical, kernel_right, smith_invariants,
                              solve_right)
from homcert.generator import (build_generator, compactness_probe,
                               h0_hom_equivalence, suspension_homology_chain)
from homcert.modules import FPModule
from homcert.rings import Fp, Zmod, ZZ
from homcert.samplers import random_bounded_complex, random_matrix

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
MODULES = sorted(p.stem for p in FIXTURES.glob("module_*.json"))
COMMANDS = ("resolve", "generator", "decompose")
RINGS = {"Z": ZZ, "F5": Fp(5), "Z4": Zmod(4), "Z12": Zmod(12)}
SEEDS = (0, 1, 2, 3)
ELIM_RINGS = {"Z": ZZ, "F7": Fp(7), "Z4": Zmod(4), "Z12": Zmod(12)}
ELIM_KINDS = ("full", "deficient")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def cli_digest(command: str, module: str, *options: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([command, str(FIXTURES / f"{module}.json"), *options])
    assert code == 0
    return _sha(out.getvalue())


def verdict_digest(ring_name: str, seed: int) -> str:
    """One digest over the h0, coproduct and suspension verdicts for a
    seeded module and seeded bounded targets."""
    ring = RINGS[ring_name]
    rng = random.Random(f"{ring_name}/{seed}")

    def target():
        return random_bounded_complex(rng, ring, max_length=2, lo=-1, hi=1)

    pkg = build_generator(FPModule(ring, "left", random_matrix(rng, ring, 2, 1)))
    free = build_generator(FPModule.free(ring, "left", 1))
    verdicts = [
        h0_hom_equivalence(pkg, target()),
        compactness_probe(pkg, [target() for _ in range(2)]),
        suspension_homology_chain(free, random_bounded_complex(rng, ring), range(-2, 3)),
        suspension_homology_chain(pkg, target(), range(-1, 2)),
    ]
    return _sha("".join(emit_document(make_document(ring, "verdict", v))
                        for v in verdicts))


def split_digest(case: str) -> str:
    """Digest of the `split-check` verdict for "fixture window [bound]"."""
    fixture, window, *bound = case.split()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["split-check", str(FIXTURES / f"{fixture}.json"),
                     f"--window={window}"] + [f"--bound={b}" for b in bound])
    assert code in (0, 1)
    return _sha(out.getvalue())


def elim_digest(ring_name: str, kind: str) -> str:
    """One digest over the kernel, two solves (the first solvable),
    canonical span and Smith invariants of seeded n x (n+2) matrices,
    n = 8..16, as in the `elim` workload: entries up to 9, or products
    through rank n-4..n-1 of entries up to 3.  A first row (4, 6, 0, ...)
    is put on top, so that over Z and Z/12 the first two leads do not
    divide each other."""
    ring = ELIM_RINGS[ring_name]
    rng = random.Random(f"elim/{ring_name}/{kind}")
    out = []
    for n in range(8, 17):
        if kind == "full":
            a = random_matrix(rng, ring, n, n + 2, 9)
        else:
            rank = n - rng.randint(1, 4)
            a = random_matrix(rng, ring, n, rank, 3) @ random_matrix(rng, ring, rank, n + 2, 3)
        a = Mat(ring, n + 1, n + 2, (4, 6) + (0,) * n + a.entries)
        b = a @ random_matrix(rng, ring, n + 2, 1, 9)
        for m in (kernel_right(a), solve_right(a, b), colspan_canonical(a),
                  solve_right(a, random_matrix(rng, ring, n + 1, 1, 9))):
            out.append(None if m is None else (m.rows, m.cols, m.entries))
        out.append(smith_invariants(a))
    return _sha(repr(out))


GOLDEN_CLI = {
    "resolve module_f5_0": "8ac9c8230678887e0efa9b9f1450fc731d315dbc1669930c676a9d9e5c53cf0f",
    "generator module_f5_0": "c60b302062e229f777290d8fd8ecc42e03df742ee87ce11ab60220b5cc87dbe5",
    "decompose module_f5_0": "3d6dcd007441233456f6548a9f74aeee645586c15f963b206503d895ca221e5b",
    "resolve module_f5_1": "a4b1c2c287768f3f9b6cdadd4c536d2d1481497bc200a69891d75767e714e76a",
    "generator module_f5_1": "bd6d664dd446f5ec948156884c60bfcb3e2736234ee61bd3875658f664b4ee51",
    "decompose module_f5_1": "5a4b6c15e3b297d656aef58876e60be726e7d595d0f565c2aa3f2a0dd30f1518",
    "resolve module_f5_2": "39ad78ffd6b8137ce3eb03108bfb04d974aa01ab9eeaf9ee23680186e0ab7b46",
    "generator module_f5_2": "950b531477c837f7fc9d6dcb933ac3f012542483eff032e93ec124e3c8a8a4f3",
    "decompose module_f5_2": "936908393831259be2ef067c8b206c8325cfae2d0bf09cdbd1d91c7180874489",
    "resolve module_z12_cyclic4": "8911c14016d8b912ae0f01bcb1897d936320662036fee5f9b39bb17507ca71c9",
    "generator module_z12_cyclic4": "f8017a84b51ad93a96ac73286fc7777a894554e3831821e194b239edd5f60243",
    "decompose module_z12_cyclic4": "0a2c5184e0a2a4471524684ac5907d0db67aee0a2cb55d6f5c91d5b354bfb0c9",
    "resolve module_z4_0": "3d493e3848dd014dd49d3e545ae9222adf18157b5e31ba1f8a34976f77588634",
    "generator module_z4_0": "28c6c097f2aeacc657e58261f51008035173a0ff1001d58f25d84c39edaafe3e",
    "decompose module_z4_0": "6889a762042611b9f980ef6152aa4cc7e559bd2d5df7aa38b0e262061baf153a",
    "resolve module_z4_1": "59c30d11e087148b3bf12f48c918adbd8d41e65b93d651343c5c0529c8340ede",
    "generator module_z4_1": "693f0b8a74bc906598d224c9d2c7660a39101620859b7309b5f521ad1dee0653",
    "decompose module_z4_1": "229d9beb386529fcff0440a8ea8c5076c26947a3198db12c5b15d5c89956d9bb",
    "resolve module_z4_2": "bdb4fcdd0637e1bef74c4f66da25cc7575edfde564af53045173295fb132b3c6",
    "generator module_z4_2": "945447c1bd371ef41426c09b5fc7a6beb93457476e73e5e9739dc674a0ccde53",
    "decompose module_z4_2": "72ca54bce5d9c24f433b2da615646035453e85f2aa7fe5808aa4c0ddeb93ed88",
    "resolve module_z4_cyclic2": "57053b842190919d02fdc9a7437ec3c71a1589637e96b2f03e9954686478277c",
    "generator module_z4_cyclic2": "02e89d0230bf830a8e755965749a069a7f52b838d355f1b6eda87975aba3dee4",
    "decompose module_z4_cyclic2": "9e42ee1643d7abef10e9306aa1aac791ce3a2493bc7579158ed55931aead9070",
    "resolve module_z_0": "f90586ee84e9de43eb19090b7bc1d705f1b1f2a7632ecafd13a6bad3ccccabeb",
    "generator module_z_0": "c346fd00736ad641f99faacb502bb592a2cad2248b5359dd6b6e145e3b7d56bc",
    "decompose module_z_0": "9874caa407cbdd42384bc64202df2f22b49cfd2dc74e6440f4cd4b8aa7982e40",
    "resolve module_z_1": "b641bfb2ac0fc130f980567de36325766b69680f4847dfe8c9e4c108a4f0e902",
    "generator module_z_1": "1b302afdedc718ffbd360eddbe7ce15d3783449cf06d0559c633f3f1b713503e",
    "decompose module_z_1": "545a74466bc8dcaa859838d9d8ed393685a6a2f185280209025399604b53e0ec",
    "resolve module_z_2": "47248d628aebbe54f5bd1dc3746aafbbfb28c0b9443d2f6ee3294549d2f3b4bb",
    "generator module_z_2": "b3161583413a52586e07158dad562faa7fae833bad39d509bc932ed6d6619391",
    "decompose module_z_2": "7a28ae459f87a19632b46d43305716db48e4c18ed6522802a0319d48e03db8f7",
    "resolve module_z_cyclic6": "e93b3d6e795bb69df0710df7fe4c85055c4287833ffe52b79f363b5d9b069541",
    "generator module_z_cyclic6": "41139b1bfbe79e084a6b164412dcfac4e0b107f8bd738e5893660aa231d6dd0b",
    "decompose module_z_cyclic6": "4f98ffb1a01cf8b033a7da191c0833eb00d50ebae95bc8902b646b7b3bb7ca93",
    "resolve module_z_right6": "33ab1d72577ce65ab4c129f5808f4f134e5c1950f09e724cdb64648dd08572be",
    "generator module_z_right6": "a19d95cdd2bb6ccf2671428848001b41ff9ff30a534cea71d50c41e28c60c1ef",
    "decompose module_z_right6": "6b50230e0fb452174fa7c79dc4dd26c7236c79c29b01b8ffd79f6461e8ca05c7",
}

# the deepest decomposition the CLI allows, on periodic resolutions:
# 100 cone levels over a residual leaf that keeps the periodic tail
GOLDEN_DEEP_DECOMPOSE = {
    "module_z12_cyclic4": "0e4fc2d6bf982dc138b42a5f0d80b0a52c643bdf0cf4c9b705ed5bae375033b5",
    "module_z4_cyclic2": "911afc50b6c3204a719113c7cb6f116ec72bb823f0d9abc5f6270d64c1a91e00",
}

GOLDEN_VERDICTS = {
    "F5 0": "9904c132df6dd4d442749dd1dc58cc0367737b88ad32730e8c06f01243661e49",
    "F5 1": "9904c132df6dd4d442749dd1dc58cc0367737b88ad32730e8c06f01243661e49",
    "F5 2": "6c1f19853d07179791c730c254106df1f748972f2350095e933e5d8680d12056",
    "F5 3": "04707272f4a52906227ed8f5506049cc0d55291b08685213b975fecd56234d61",
    "Z 0": "ea2436bdef3e0515e16e2458ef1eca402911904dd7a216677e64257fca21226a",
    "Z 1": "28c8a0f9415c54bf1ae9999b530dc4715fcae549e3cd84d6e871ab7a794802e7",
    "Z 2": "28c8a0f9415c54bf1ae9999b530dc4715fcae549e3cd84d6e871ab7a794802e7",
    "Z 3": "b0cfe64e90a843ee5177fd4dc35146915926e13f44e5399712212916ba1f2628",
    "Z12 0": "e63bdb61e88f3913153c6e4ce817d9fffdeeebb46a327912d3d99cddf73eeb7a",
    "Z12 1": "daf0548604dc9f714a8b5b5eb1d2261bb3bc8e8117d13d037e75ef9b7ca30d6a",
    "Z12 2": "1c9f875406270b0e07775cf9745cfcd3b12f775b40b5e0bd4944225ea1776ba1",
    "Z12 3": "100d917fd80fba5be483d03e72325d0a6d1dd21c2bc27114b38e7d2fc0ea1885",
    "Z4 0": "555df436a163ab477d793ba67ca90ae8f4e6f302018605455a4c1833c1e0bc49",
    "Z4 1": "0536af7b4156d588332fb3fe89195586801ee6bac3ece83bf12b389117819e86",
    "Z4 2": "85671dc8339b5aba85375a9651e351180a24c3199ec09805136f5e5b9f14dabb",
    "Z4 3": "5978b828ffd73f8b7e22331740867e7f89aea855a05ac80c384695db9de56fe9",
}


# one case per failure code of split_exactness_check and pd_bound_collapse,
# and the passing verdicts (a null homotopy of the identity) on the
# contractible fixtures
GOLDEN_SPLIT = {
    "complex_z4_periodic -4..4": "72c36fb105bbf54d469f9f01e19eea03e3c640384d2f47ed7aff78c3a24def02",
    "complex_z4_periodic -4..4 0": "b5066204994e568f4da98ecbbe938e094b8f3961a4a8d62fc444efb68c64d02b",
    "complex_z_mult2 -4..3": "58f40e022ac7d295564402f92d4b4e4b49f180616211376d32b6d766d91b6e68",
    "complex_z_mult2 -4..3 1": "aae1b7347cd1c27ff3457bd1b72bed7272160edf012993a00c4accc70b8b9888",
    "contractible_f5 -6..5": "c0890c47c33fd4a62799f053e80f5b1cd539b38c437100835f669a59362d011f",
    "contractible_f5 -6..5 0": "9c035f03094313d6bc5d7611035a84815f59f98ff4aa8d213f3c235eb902db2a",
    "contractible_z -1..5": "637a8e6407ec6e67f1e8fa4bb69d2e9019e579edb6ea22edf12399ad42e7dbab",
    "contractible_z -1..5 0": "d0b064c44d0abb54285faf23bf7a7ab3084d3c0d8186a3b7a52b9fa6664261fc",
    "contractible_z -5..2": "b6fa8db2b2460da9469bb97da5130766380b16838df5b5a249367067f322bb9e",
    "contractible_z -6..5": "2cf9d879080a0c5cecd08aedbef4d0a8a9d6c96f914dc35d2ba4992a7a8b3581",
    "contractible_z -6..5 1": "7700a5798c936cee5291057d286b232eab7403d79e64fa588b2984aa6c36acf5",
    "contractible_z -6..5 16": "61560d2e83898ff06f5760e9c28e4424423dd4a98bb63d3c32cbad81fb432f72",
    "contractible_z4 -4..6": "0e284d9afc4f95bbca6e6aca95e182accb4b81e376263a9baafc043b57aacfc6",
    "contractible_z4 -6..5": "425957959e687466dd3e631a404ae2b72910549e48d1c94eb968db793b2eed14",
    "contractible_z4 -6..5 0": "b5c697495e96ca87d4fae0b419454cfcb78c8213446bd3dbda08c88c61561b76",
}


GOLDEN_ELIM = {
    "F7 deficient": "7350d2029b46c0f676261d3cb0118a1b5f1040a1fa7bcc8eb357f9de03913070",
    "F7 full": "61a8eecc878cbcbf98aae52d46bfaf01557929ae5b068dd30866309b30a746b6",
    "Z deficient": "66031cbc84b2ed1d3027a88610acc5419613b409246f304566d9df083cac88bb",
    "Z full": "e988a31e659d79d3243dbba2f55f603dd566465e7a139b72db1eb1c1bf0f49ce",
    "Z12 deficient": "aacbd1754d9430becdd81df1eac14833824a734daa1e68ec0f8e8024694e8933",
    "Z12 full": "ad7ce7d23f83ce899206c8386aa82e91ffff4fb7fe598b3211fac6c139d70594",
    "Z4 deficient": "bd19d0250416dd0ebc4d189444e31362c418a7d78a343396ae8c5770246fbff5",
    "Z4 full": "77cd4e0eee4be921b5cc8b33650e384a74e4184314cb193912b1aacc12e07367",
}


@pytest.mark.parametrize("case", sorted(GOLDEN_SPLIT))
def test_split_check_digest(case):
    assert split_digest(case) == GOLDEN_SPLIT[case]


@pytest.mark.parametrize("kind", ELIM_KINDS)
@pytest.mark.parametrize("ring_name", sorted(ELIM_RINGS))
def test_elimination_digest(ring_name, kind):
    assert elim_digest(ring_name, kind) == GOLDEN_ELIM[f"{ring_name} {kind}"]


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("module", MODULES)
def test_cli_output_digest(command, module):
    assert cli_digest(command, module) == GOLDEN_CLI[f"{command} {module}"]


@pytest.mark.parametrize("module", sorted(GOLDEN_DEEP_DECOMPOSE))
def test_deep_decompose_digest(module):
    assert cli_digest("decompose", module, "--depth", "100") == GOLDEN_DEEP_DECOMPOSE[module]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("ring_name", sorted(RINGS))
def test_verdict_digest(ring_name, seed):
    assert verdict_digest(ring_name, seed) == GOLDEN_VERDICTS[f"{ring_name} {seed}"]


if __name__ == "__main__":
    print("GOLDEN_CLI = {")
    for module in MODULES:
        for command in COMMANDS:
            print(f'    "{command} {module}": "{cli_digest(command, module)}",')
    print("}\n\nGOLDEN_DEEP_DECOMPOSE = {")
    for module in sorted(GOLDEN_DEEP_DECOMPOSE):
        print(f'    "{module}": "{cli_digest("decompose", module, "--depth", "100")}",')
    print("}\n\nGOLDEN_VERDICTS = {")
    for ring_name in sorted(RINGS):
        for seed in SEEDS:
            print(f'    "{ring_name} {seed}": "{verdict_digest(ring_name, seed)}",')
    print("}\n\nGOLDEN_SPLIT = {")
    for case in sorted(GOLDEN_SPLIT):
        print(f'    "{case}": "{split_digest(case)}",')
    print("}\n\nGOLDEN_ELIM = {")
    for ring_name in sorted(ELIM_RINGS):
        for kind in ELIM_KINDS:
            print(f'    "{ring_name} {kind}": "{elim_digest(ring_name, kind)}",')
    print("}")
