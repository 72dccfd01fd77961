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
    "resolve module_f5_0": "4da6bbe3658bd5932731f969f6df7a540597e71efdf236a9544228a3b6559a09",
    "generator module_f5_0": "725df37a417de05507c3739142c46722cd4a19cbe94d0baa7ee90632860f6158",
    "decompose module_f5_0": "3798e90ed240f20610539c44c8084d8a5cb7a4810d8f9a2f09306383096a7672",
    "resolve module_f5_1": "0d3a6b794ad792cd26aab555770348277f3b2de43ff1358c01a6710e346f8758",
    "generator module_f5_1": "141d28817a342fc746916fc7a72957d5b93901ff2fb1602457b9d1fb38973527",
    "decompose module_f5_1": "6bedd68bfa8e7865dc23b017bf9f9bf9010c063bbbc691bc18a639f13772a54f",
    "resolve module_f5_2": "8df26ab7b71d77ebcb7333f0c6a815ede3239fda8f474264a88bbe19ffa97740",
    "generator module_f5_2": "e5bc4d28fccb34ef4c130d59d108f8626ed8bcaa3216ce25022ea959c4eaae1f",
    "decompose module_f5_2": "34bc26f4f755fb182eb05618aad45c6991ce22c365ff206c2738893e151d2c78",
    "resolve module_z12_cyclic4": "e97877c0bee9e05d780e7e21d90ff82d6bb758d84495984f945416ca149ddb42",
    "generator module_z12_cyclic4": "e937a10cc3f5d8429931950fe9d8209b02cad011c43d7140b80b27df08e99a90",
    "decompose module_z12_cyclic4": "2a00801c4f61f68f3dd6782f4b587efb487d653009da399228e2d4941895b2d2",
    "resolve module_z4_0": "bf4f79d5a91a7d29641f3b394f0a00fd669e58d3deae7c22ea0610264a113776",
    "generator module_z4_0": "9a934c445ad47bf3be5ec9dde505389831fb602435d374af0adda15460191ea4",
    "decompose module_z4_0": "d32f73f0bc3a588f519c90e3b08624ec58f96d34a7812dcb9127f5f66d55ac49",
    "resolve module_z4_1": "209d9434b91aca6f11625d45c04360d186145ecfb6906d0f9451ce7f775c8295",
    "generator module_z4_1": "51ab26c2d3644b1dadfbc9bc147254efaf7127730974e0c40bca4f777f9e36b0",
    "decompose module_z4_1": "2c48d081f02c541bcbcf4618416269218c9305fcf9e439fee56b9fa5ad469a4a",
    "resolve module_z4_2": "18e5d6a54531246ec445c17578130e8fa21da50034137137e1b7d4238640c97c",
    "generator module_z4_2": "45c7324b84aab6aec875a399ca3d4536d7f914b2e56b957c767b4297fab7ea38",
    "decompose module_z4_2": "4359eb9017fdeceef5acecfe932d05f0ac18071fe2c7c36cbe17df46eac859c4",
    "resolve module_z4_cyclic2": "a02a0b6b3f3b171bd124d95992857df22edf497963029ab1746451e32173a8cb",
    "generator module_z4_cyclic2": "c4ea6728ab45c49e128164ad46a3be67acb990eeef75b78f12d40285825435ba",
    "decompose module_z4_cyclic2": "3f4442c7873c99b13b6d89cd3b352603f6f4de9b756aa08d6605ef58d383e51b",
    "resolve module_z_0": "3231bc88086de060dbc957b2ec5903d592f3ec8481f1b1fbfb9ffe1601adbd26",
    "generator module_z_0": "8820fd982febc5158e9b008eafaab761cb1ab37c9700e29345812485b5f27812",
    "decompose module_z_0": "9f60ad50a237061839b385aba88349dd862fe6f3b86793729df2df47514f5737",
    "resolve module_z_1": "f7fcad40bdc5a662d43e4ed0401733e4e7293ab00e553ae6586d8f9939c09624",
    "generator module_z_1": "0f6584fa3dbfa03f59efe93a43ac111ff692b1fb4c31aae180213695cf67effc",
    "decompose module_z_1": "e481e1219229916c9e7026842b15a94ddb51ff38c7e52f4a08fb42d95ba2abb8",
    "resolve module_z_2": "fc9977055093bace114b852ac46d15f55ce96cc641310655e278a24b29e2411b",
    "generator module_z_2": "0a69ce2f0321804b86e7db0ece8ea3703a3c240a48c4a3979878039673b69a26",
    "decompose module_z_2": "4280984b7c79d83f550effe3744d4f87a87b48ec355ac6bfa2b57d5dfe19a739",
    "resolve module_z_cyclic6": "6b46697b99fc52b60727ac0256f1b88d70d12fdba1dbb583f1fa675b4c51ec16",
    "generator module_z_cyclic6": "c54607995bc7c967b304e673ab1a704bc349756c9705b6902a594f9c35d61464",
    "decompose module_z_cyclic6": "d3dad8d63e209ca277f4e73b69a921119a01e699c91e949257fdf92ff64011e0",
    "resolve module_z_right6": "dacdafa95f611110b73064a5c4ece420cc9213ef607aa8bd1acd30a5f8b4401d",
    "generator module_z_right6": "c72db703f04a91da2e9274b6ba31a5a3524ebe254daf79398dbea04e158e454d",
    "decompose module_z_right6": "a5b402080eb4ad950d5a12e9dadf33e62be106f23e61403ead456e3e77b31a8d",
}

# the deepest decomposition the CLI allows, on periodic resolutions: the
# same loop as at the default depth, which bounds only the resolution search
GOLDEN_DEEP_DECOMPOSE = {
    "module_z12_cyclic4": "2a00801c4f61f68f3dd6782f4b587efb487d653009da399228e2d4941895b2d2",
    "module_z4_cyclic2": "3f4442c7873c99b13b6d89cd3b352603f6f4de9b756aa08d6605ef58d383e51b",
}

GOLDEN_VERDICTS = {
    "F5 0": "0237273833d42f5a8949a221a8e53c9e2b72f374c58e3257b53cadc23428dabf",
    "F5 1": "0237273833d42f5a8949a221a8e53c9e2b72f374c58e3257b53cadc23428dabf",
    "F5 2": "3c3a01624c6f9faa28695a850d7e5cc20f8f94c89782e2f2337124000f9e7877",
    "F5 3": "3edeaeda122f18c99e207225f23fa66218bfa8e5c823f26c93c1a9d4cbe265aa",
    "Z 0": "493682df35ca4a585d5d9f8e4644c4dbb7d4656f2739d4c261b0f2683e910d8d",
    "Z 1": "98bccd661e5bf371b1b9eabb0c8106358a12731acb061efb092416f13995181a",
    "Z 2": "98bccd661e5bf371b1b9eabb0c8106358a12731acb061efb092416f13995181a",
    "Z 3": "b73cd863c5fb5ef2c383ed488418ba90ff58d532a96c2524c893a24ccc168338",
    "Z12 0": "ad015b9d8c7edcc64f6d68295d09bb9b5f024acd38c5d36c629d665c892a8495",
    "Z12 1": "fd58c312ec921ad6489a6104bea2392769ac270e74fb8405ea9d2fec7ca35f9a",
    "Z12 2": "a635529996434279f948b776e0050f3e07abb934dcceaa8fd4a193f0cbb096b8",
    "Z12 3": "d73db786fda20bc0134f2c208f8eb3dc6f66cf0e31b987efd97348be1116e83d",
    "Z4 0": "5ad643c73c256f0f807f37e6798692ef682c28ca40f53e74eb7226fb36f26f23",
    "Z4 1": "1c797904aafd19ed1ed09283aca35d619332af9c34832627bfe8ab0e6121a1dd",
    "Z4 2": "cbff4057be2d7218476cc4bb99f477b1fe0c14bb81b32ca4d55dbfbc7f35c920",
    "Z4 3": "361a48193c72af98a6b7254948160c060d7834c9b1355d3eb1f9b8100eb477f1",
}


# one case per failure code of split_exactness_check and pd_bound_collapse,
# and the passing verdicts (a null homotopy of the identity) on the
# contractible fixtures
GOLDEN_SPLIT = {
    "complex_z4_periodic -4..4": "acd213140ea179876cde0ea55069ae331d6215102c187d90f12192868f01c4b5",
    "complex_z4_periodic -4..4 0": "6d95d08502a737a54071b4e562fc0aa262a68b4596194bcae551e29662444733",
    "complex_z4_periodic 0..1": "77a10eac63e5a1c600faeb588155196d9ad002c1a45db55169d9ae7c391253ea",
    "complex_z_mult2 -4..3": "bd4d074ff54c385a3be92b9555d826200cb00aa6a4cf2c7ab81793fb8ed70057",
    "complex_z_mult2 -4..3 1": "313b5b94601b886a41ab090fca495757bdcf8be88199d85a851e653948eb2c59",
    "contractible_f5 -6..5": "2856a568a551003ed393e6591168c5b2b8ee2b470337d06994bfa70bedb58b97",
    "contractible_f5 -6..5 0": "0edeefe6b50aa97fceda0218ad4b5de25de4daa5c38a30d883719ded79098bd7",
    "contractible_z -1..5": "407539cc0ab8b8dc8bbeb08e95e99d600898cfaa8de80b04f2ab3392b174ffd0",
    "contractible_z -1..5 0": "cc68943d188f5d9ca4d5ca1afc3e2db0a0bf723b5f4635de8982bafa19ccc2aa",
    "contractible_z -5..2": "407539cc0ab8b8dc8bbeb08e95e99d600898cfaa8de80b04f2ab3392b174ffd0",
    "contractible_z -6..5": "407539cc0ab8b8dc8bbeb08e95e99d600898cfaa8de80b04f2ab3392b174ffd0",
    "contractible_z -6..5 1": "cc68943d188f5d9ca4d5ca1afc3e2db0a0bf723b5f4635de8982bafa19ccc2aa",
    "contractible_z -6..5 16": "cc68943d188f5d9ca4d5ca1afc3e2db0a0bf723b5f4635de8982bafa19ccc2aa",
    "contractible_z4 -4..6": "de6abd2cc306bed2e343597e00b2507834628f7fc919c118cf310c14a75db666",
    "contractible_z4 -6..5": "de6abd2cc306bed2e343597e00b2507834628f7fc919c118cf310c14a75db666",
    "contractible_z4 -6..5 0": "7dcff66833485ec57dad729cc93245eb086bbd87c42aa1f1f84ae05b0b79050a",
}


GOLDEN_ELIM = {
    "F7 full": "61a8eecc878cbcbf98aae52d46bfaf01557929ae5b068dd30866309b30a746b6",
    "F7 deficient": "7350d2029b46c0f676261d3cb0118a1b5f1040a1fa7bcc8eb357f9de03913070",
    "Z full": "e988a31e659d79d3243dbba2f55f603dd566465e7a139b72db1eb1c1bf0f49ce",
    "Z deficient": "66031cbc84b2ed1d3027a88610acc5419613b409246f304566d9df083cac88bb",
    "Z12 full": "ad7ce7d23f83ce899206c8386aa82e91ffff4fb7fe598b3211fac6c139d70594",
    "Z12 deficient": "aacbd1754d9430becdd81df1eac14833824a734daa1e68ec0f8e8024694e8933",
    "Z4 full": "77cd4e0eee4be921b5cc8b33650e384a74e4184314cb193912b1aacc12e07367",
    "Z4 deficient": "bd19d0250416dd0ebc4d189444e31362c418a7d78a343396ae8c5770246fbff5",
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
