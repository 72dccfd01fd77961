"""Golden digests of emitted documents.

Pins the exact bytes of the `resolve`, `generator` and `decompose`
output on every fixture module, of the verdict documents of the
HomClasses checks on seeded inputs, and of `split-check` (with and
without `--bound`) verdicts on fixture complexes, as sha256 digests.  A refactor
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


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def cli_digest(command: str, module: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([command, str(FIXTURES / f"{module}.json")])
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


GOLDEN_CLI = {
    "resolve module_f5_0": "eee67367da7370f4dbcb2f6a319be060377b9f49d02da286e19c0620ff078922",
    "generator module_f5_0": "b6cba6091dfc44dedb6ceb5633b67f3d122688be9696c78f8ae78c2736577c6c",
    "decompose module_f5_0": "5d6160b40aa53e5b6268f5781d7b42c6090137f5f8c39b3d9cd3bbfe338922d1",
    "resolve module_f5_1": "753f4eb93ff1fc19a9d0de77ecd5b499e46b47cb5e1a6373b6168870ed62b7ca",
    "generator module_f5_1": "5295f1966ed3e21b2ed3d6c5786413a1ba68628882dfd0e3bfa0a7b17a3506fb",
    "decompose module_f5_1": "b0ccbda670cfe3ffe43b4bc6fe2e0ef21c32d92ad9f85699932cd67d4b53a3ad",
    "resolve module_f5_2": "1359795c3fd505610246e89aa8f0d2aa656d1535750dc4c5760c9f31d7dbd6c4",
    "generator module_f5_2": "9a2297e2f18149e7a5f6ce59f19d4101f709c7d6462dd2321459a5bf280875fe",
    "decompose module_f5_2": "c5110bc43dac5777a094693b8062ad55d8d3dd9200245decdea5bd2ccdb71797",
    "resolve module_z4_0": "f0c1c669e08a39f4ef89772201215bdba2a5f0a1ee11d2171067a0295741a6ce",
    "generator module_z4_0": "6d5399764821e901cf7baffe57fc82f61e38c311b8ce8a01493971f2be1e0041",
    "decompose module_z4_0": "9ebb66f05c035777de7ca009ad16407d388b6bdd5b023c67310ec928dc813073",
    "resolve module_z4_1": "2e62456d0195ae3a610ffad957ecf3420633396866f5034edfd04b73a56e1c18",
    "generator module_z4_1": "80f306ac84ee42bf1b94ece842231b616e00c8c33f94520034b2cc901e3b7af3",
    "decompose module_z4_1": "98c0276109e35e04fcbded03d7b9fbf7312596716c04392089cad6a0fc4ee9d3",
    "resolve module_z4_2": "81572a3b0f464d4d8c25c054f0c475dbaa6ef50b710d9e8fa8b0d18163d2c7b4",
    "generator module_z4_2": "2a3c71c70fc5a769b0727d91e53fab3675d986d03d7dd43d8eeec018df178671",
    "decompose module_z4_2": "2277a5eb62498b7d68ff4bb459702c1fda5663831846fb11ad504d238884ce02",
    "resolve module_z4_cyclic2": "4943f5ee96757c4239393e252a14840f1ce067a64f1a09ee4e68ca7aaa68ecd6",
    "generator module_z4_cyclic2": "d7fdf0f9eb8976929f04e729d16625bcdcbae36c9beea4f78d4009d85a46685d",
    "decompose module_z4_cyclic2": "7486aa07db16d1e13e689174560d855aea4f489b74c9c0e89fb40ac6ecad09e5",
    "resolve module_z_0": "b143c911f61322b41874c7504e58b3b961aeab97f1fb8192ce616efd6e9fc763",
    "generator module_z_0": "2aea7c252023e5dd008b9396b0eb52f100744ed98bc4bfce2ff3f73efafa40a3",
    "decompose module_z_0": "a95ace2a271f3fe9695df2ec2c3a3f15aeb300e53883213536cc2ab0ab44b3a3",
    "resolve module_z_1": "cd40722b68d09a5fa88971b693ded36d313434c4abe95b3c9285b868d31a9038",
    "generator module_z_1": "3f82d587df2818f1532333060419cc13b29cc86fbcd3bf4b72061560ed80dd3a",
    "decompose module_z_1": "d8bca29fbf4122b786f1e522a53e6775e919eac7a1e3fc01499cd6a3e688835d",
    "resolve module_z_2": "90f11b2b02a6ef349bfe0b2060d4d66c3ba2d91d26b481aa45dd1c4663da12ff",
    "generator module_z_2": "5596fa9addf422cac96a8a174e3531b641585573351a49420d10cf83b388332a",
    "decompose module_z_2": "993ae555f3f600fd7763400e4b9c56fca7d4de9b996da979eb233efdc7879d82",
    "resolve module_z_cyclic6": "7cc24a2d11bb9566409467e2a184381f43b0880c79fecc58976b47be90afe8b3",
    "generator module_z_cyclic6": "b1e8cf2e348cc790cefeec71050ac41ec319840f56bb7d020464cfed1d7ddebf",
    "decompose module_z_cyclic6": "1a6673551c8974c3f7740413397607046cd038cdf47114711011d2e371cfe2e0",
    "resolve module_z_right6": "58c1572a524df8cddadf0bdcdae7f8857f45dc48da1ca2b4923bc50cfc71d677",
    "generator module_z_right6": "eb495544eea5e5f118ad90e1aa8a3aed71934a21aa524c193a302d681bcab71f",
    "decompose module_z_right6": "ade4cd690c113a97f33f6f7bb09d4a0d3301f726acf9971c41afb230ba6046a0",
}

GOLDEN_VERDICTS = {
    "F5 0": "2365b29eae2628771a663f746e071c8d25565331f2526594319d8c1e9bf9edb8",
    "F5 1": "2365b29eae2628771a663f746e071c8d25565331f2526594319d8c1e9bf9edb8",
    "F5 2": "ed39804a750242e522f330bd70f3ebdcc2e129a288506e8041d4e08e7c7e699d",
    "F5 3": "0cfeb8dae7105fadc74260fc419ae11eaea0d8c953df985f018270934980a08c",
    "Z 0": "2d4d32da71b974d855b2c93bc58bfdbe94ca452934fdc4d8ed79150e4f53dc0b",
    "Z 1": "4450a6b4c8f445fead3a15e0187f91c6758c36dfa37d1ca0d7b6add5ea93fa7d",
    "Z 2": "4450a6b4c8f445fead3a15e0187f91c6758c36dfa37d1ca0d7b6add5ea93fa7d",
    "Z 3": "c3ef57804a722eb63fc4dea53ee3d6178d94c42a89e499c6466abc1b56386190",
    "Z12 0": "73885f6e055bb359763fa8d349bbef9cc199cd6df7f3ed0937076cb20cc8d82b",
    "Z12 1": "933aa37eafa53c7c203d8c2a2375e6b72d3333756131d394493ed640598b983f",
    "Z12 2": "dfa6e77693a63292d748b7889eb9c1df89c34313dba0efedd6b3abe89d8fb952",
    "Z12 3": "37d9358cb56017f1298e48b03d4b767deea7be07a71b5c8a4d5bab265ea25dba",
    "Z4 0": "befda88665107a9ed724a553dcf38a3a28d5c4065fa59e6ef71681ed18c8d18b",
    "Z4 1": "a64b62e3fe022fbd01a4489eae9c341728f945c204a9110a5e27686d4bd139a5",
    "Z4 2": "9a6b21e4482a95e71e0013ae7ce81f3366f8b79e7bbe40a8d35cf502b9744592",
    "Z4 3": "ab3116ea8bf0f23bbfd67cdd5d9d220bcf9ba20cb8b45c7fee4e9b48979b5552",
}


# one case per failure code of split_exactness_check and pd_bound_collapse,
# and the passing verdicts (a null homotopy of the identity) on the
# contractible fixtures
GOLDEN_SPLIT = {
    "complex_z4_periodic -4..4 0": "78978fb834f49d18c87bebcbd28d587659c854e64884f35ed48c0c8ae1018431",
    "complex_z4_periodic -4..4": "a7c1ddb7c61988d45a55ca7309f298a05f7b8b936edd6242c4a285cb79bd77c9",
    "complex_z_mult2 -4..3 1": "c5f50b9a53ff791ff9dba0b2ecbe6fac18a6585e3a77469c9c074bf04feba2b6",
    "complex_z_mult2 -4..3": "a97b65b3af19a4b5d9025fe72f3d18e5db2bc6b1304daba8a76707d78acdd121",
    "contractible_f5 -6..5 0": "17e0629864b7a56c51c363b65e0e75def61204a4c2b6d6d2beb75b49ff7a1b26",
    "contractible_f5 -6..5": "c71f6178337985da11c8a88b0eb2b9b42fc183b55851f527095f5ed9e2132730",
    "contractible_z -1..5 0": "4aa3a13516cee812333d9c0c2227276f8874625a8cad666621254864732917e7",
    "contractible_z -1..5": "d8159b758c3f0dc9ffd2d9bd9f14fa32d45b78245c1d00a23cef01b2dc094b41",
    "contractible_z -5..2": "1e65fe0b33452367e21f64560776e34ad4af93c3ad2c6006ec6dfb9875d9da6b",
    "contractible_z -6..5 1": "1c48f202757321a3ef937a2b870e48358af1a6b260077863125e2cb641a0a6a9",
    "contractible_z -6..5 16": "f681ddfa25e4a6decd871a0a208394399f2a41c483c4b2fb1d8c85d22d325f95",
    "contractible_z -6..5": "9faee175f21ec99a1289a40612256fc0cec87f9b3568bce68c7f8062a1e12a44",
    "contractible_z4 -4..6": "164a372fc18a196a3f08d61992fbf2659f8261b4cfc09f463cb2bec87178ad49",
    "contractible_z4 -6..5 0": "b321be4cbaa5947e05d268177f26c044198a48dd654f6abef3ecf607c99bd6a5",
    "contractible_z4 -6..5": "38dbee1522eda2aa2f250fd89ee3e80563d3f17ec4241b8da4d5526948306e92",
}


@pytest.mark.parametrize("case", sorted(GOLDEN_SPLIT))
def test_split_check_digest(case):
    assert split_digest(case) == GOLDEN_SPLIT[case]


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("module", MODULES)
def test_cli_output_digest(command, module):
    assert cli_digest(command, module) == GOLDEN_CLI[f"{command} {module}"]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("ring_name", sorted(RINGS))
def test_verdict_digest(ring_name, seed):
    assert verdict_digest(ring_name, seed) == GOLDEN_VERDICTS[f"{ring_name} {seed}"]


if __name__ == "__main__":
    print("GOLDEN_CLI = {")
    for module in MODULES:
        for command in COMMANDS:
            print(f'    "{command} {module}": "{cli_digest(command, module)}",')
    print("}\n\nGOLDEN_VERDICTS = {")
    for ring_name in sorted(RINGS):
        for seed in SEEDS:
            print(f'    "{ring_name} {seed}": "{verdict_digest(ring_name, seed)}",')
    print("}\n\nGOLDEN_SPLIT = {")
    for case in sorted(GOLDEN_SPLIT):
        print(f'    "{case}": "{split_digest(case)}",')
    print("}")
