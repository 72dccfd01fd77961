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
    "resolve module_f5_0": "6339f19ded2802ed5b35c8bba542e688b24c45f22edc771ffc5095da408dee5f",
    "generator module_f5_0": "10e005834d809e899c70aa595706f76b1f3677c961fe19c46d55b44ede061f96",
    "decompose module_f5_0": "5d06fc8e40829e8b4b4819fe8dd241afcaeb6906112e034a5d7a685232bc21a2",
    "resolve module_f5_1": "850001e3407f0a497fd2913b16d38ed01e64d478164d1c2f3d70cc7931877e88",
    "generator module_f5_1": "1ce49107640ae44c770463b8e8bc31567d7da8f9b138bd13d064048a75543139",
    "decompose module_f5_1": "961c95b4845c5c34f8e58f2591e5a5d51bacbcd592d0efe3bcaccfbc95653325",
    "resolve module_f5_2": "17c1a29200e568240f435db0e75de04dbf33e6f4135705a8015a72de47b43d51",
    "generator module_f5_2": "97aeb2ead3fd9cf2abf9d386a445df060f6ab4c74a3a0ac9dc95f16e5a1e4bf7",
    "decompose module_f5_2": "9d676bf8b08bc36f1cc54b878c10b9d98af90cfcaf9a657ea3090251f0a9233f",
    "resolve module_z12_cyclic4": "4e3030e844281ece50756f1f6936ce85e223b6819b0bb5f450c05b45f6238d60",
    "generator module_z12_cyclic4": "b3b09eb9973a937e750332ee4ade3cca0e1639253c146355aad375e82a8a0969",
    "decompose module_z12_cyclic4": "bb4604707487082a70830a4dcb52a92879c697685283607bb5c4aaf1023ec93b",
    "resolve module_z4_0": "6a29815e661fe27e7bb0a16a8baf062ae5d294f74f4afd37e68395b95228482e",
    "generator module_z4_0": "893cc602fff90b236bed31e703ff321c2e464e5dca174ba1b5c05d600cc21e95",
    "decompose module_z4_0": "0277742ac7e06ce55d0947d19894d74cb592942c7e4b262e4398018a195006ff",
    "resolve module_z4_1": "d9b23e25233cb4684c4d8fcb3c5d76625a35793b1980089bb04109d337631d67",
    "generator module_z4_1": "14302f3e81b0b15a2a50ad1f27dfeff686e95d228df60b62398d89debb06cf7e",
    "decompose module_z4_1": "6416307ad7061eb5a1c09e1440ae43cc1178ca0b9ea1ae7ee13981b3820a498b",
    "resolve module_z4_2": "df0502c51cf76e5108b2c1a92536608ec4ed79c19dd9ee7fe26c655843fdae62",
    "generator module_z4_2": "84ff81e1dbb97179f02033e46446470767a6bb18aefdf7ed1bf21246aac36de8",
    "decompose module_z4_2": "c1e0ced2f9c764d0b20abf43a0f8c8ceef218f53eef91ecbbe64a13bcba499a9",
    "resolve module_z4_cyclic2": "f1b276864b49a1a33f9345cf0ce6efedf82825c80498b4181252f7742e51c386",
    "generator module_z4_cyclic2": "045d7e396b4d33ab84ebaf515547d31d9cde7d4ebaf909cab60e78850dca91b8",
    "decompose module_z4_cyclic2": "d78220176c5b749b727074aa1db477a070b7f80e61110584ba566bf4c06aca1d",
    "resolve module_z_0": "f7bea0bc9a7d87185dad0b7fb6e321439cac766c08043ebb5d8986c9fa1ff4d6",
    "generator module_z_0": "c75171cb08447257aad16140e1837aeb361321e9fc23cfd71cdea57631496cc5",
    "decompose module_z_0": "a9988d2c7c5a6d8b3f4effe11a14ac2446871d8735ed5edfea23439ca6b310a8",
    "resolve module_z_1": "361859e37a5e9e3b15ab7cb873cb01c926d1ada8f50b9ecfb02fca4cfe5def60",
    "generator module_z_1": "e35f7cd7d94aadba3f36d1a7331d700587edf4fe5cf8756e99a2b04f832939d0",
    "decompose module_z_1": "c27b4ecd48e6a795e9f8536d74d5ccd8b80cb1b95877e755388933e74dcfe639",
    "resolve module_z_2": "dd4a0866cb8fe995106b20a2d595cb7b9304aa210a22b71c0c669447b7738cb2",
    "generator module_z_2": "013feb077e9adf28ab78361591773d75d23424c5321552584fdb2d8342d18424",
    "decompose module_z_2": "3d887e90bbf4bbdb4b9caf5f001d13c6da60ac28271a38860f2723d9e0044a86",
    "resolve module_z_cyclic6": "3df0beb38a9d26c2ff4ce76150fe2ed9e39ab89dc9022a88d26daa31907bc8b6",
    "generator module_z_cyclic6": "f675a65160d680cfa029af0e9943567d72f3d9a3cbf8f813ba78a6323454a5af",
    "decompose module_z_cyclic6": "4f02c27a539cb3dd62a9f17f0f675d38a57cf85bc18ed5c06c8891ccae5a5085",
    "resolve module_z_right6": "b7ab9abbf4295c30c6ba2fc472b33c086a1ea1b636138854160c7be59f43eb84",
    "generator module_z_right6": "2a1f0a6deea3d31e66615f95400218088dd2c4b38b503011c3d1ab283fd6f08f",
    "decompose module_z_right6": "d66c3af730f159dd528487952c23af9defaeecf6aa6e5606c49bfbe230edc242",
}

# the deepest decomposition the CLI allows, on periodic resolutions: the
# same loop as at the default depth, which bounds only the resolution search
GOLDEN_DEEP_DECOMPOSE = {
    "module_z12_cyclic4": "bb4604707487082a70830a4dcb52a92879c697685283607bb5c4aaf1023ec93b",
    "module_z4_cyclic2": "d78220176c5b749b727074aa1db477a070b7f80e61110584ba566bf4c06aca1d",
}

GOLDEN_VERDICTS = {
    "F5 0": "21c48f0e29b226b1a249abd151b8e2838e12971262a6d06c19c68ef1cf7e2cbb",
    "F5 1": "21c48f0e29b226b1a249abd151b8e2838e12971262a6d06c19c68ef1cf7e2cbb",
    "F5 2": "f5d2f32e810a424e5f0b4db27f59d2dc1e2c695a915dae22add29929a3c5f8dd",
    "F5 3": "b517f5a3722386c2205e805ad8fb107dd25071f6430315cb3cf953b46c77687f",
    "Z 0": "f87d3c109fa593dcef5c7223f3777b40fd4776b97c47f1591ad9f27d7bd0cfab",
    "Z 1": "73d312564d40e96d017b43c927d65f34a8d388f40efa565c93bf7a1e862d9018",
    "Z 2": "73d312564d40e96d017b43c927d65f34a8d388f40efa565c93bf7a1e862d9018",
    "Z 3": "b263d88cda270de9db4d84c01b8a535fe8da4e6f3e54fc68bd028386321ed29f",
    "Z12 0": "dde1de5e407ec5fd05aa2815b4f06ded0b138f2cc7dfd40aee51a6d4bf1812f3",
    "Z12 1": "68fdb93ffe278991712eff45b56bf91d30a81feb9e8fd8ede816e5126c88ff64",
    "Z12 2": "c92ef134d2c3d3001426db5f14083df87d30bc120b765d6c5c89a667a56209ff",
    "Z12 3": "2caf8340c0f55154d4f47b6075c54a5c41a9ba4d372f2710c3d2750823ecba8c",
    "Z4 0": "f666dbfe5cd9ad07c0b1e71d5032a495297f7fb4b5da9624b11cb081b7c46828",
    "Z4 1": "ee7addbc2e5cc752f87797565a2199b9d507340b2d6048fd8bb4e983b237a11b",
    "Z4 2": "4471069a4f37690c81339fc116d2af9f9828ad7869c9355ea4886148d226d073",
    "Z4 3": "11f416ef43471ec535f721e19147dd64e4ba91b941c8123888947680615d41fa",
}


# one case per failure code of split_exactness_check and pd_bound_collapse,
# and the passing verdicts (a null homotopy of the identity) on the
# contractible fixtures
GOLDEN_SPLIT = {
    "complex_z4_periodic -4..4": "b06eeea264b0f7bf0813b84043474369ac3dc861cc58ac2db9c697c60343ce02",
    "complex_z4_periodic -4..4 0": "12a62ea835fde6ce5da3eeeeab37ba82de0a4977a124827d88af80a326a41d90",
    "complex_z_mult2 -4..3": "370636caddd0dcfa3e1983000f77984c29705f1de288a9547f61c4467e711eab",
    "complex_z_mult2 -4..3 1": "fb3c6b818949cc5d24f20f4e0d56435555bfbf4e86865545562a6d98d97c2e6f",
    "contractible_f5 -6..5": "0b05777008c8f806bbfdcf863e8a96bf1d2b9fb01077957bba89560d703c2d34",
    "contractible_f5 -6..5 0": "7209f930846c899943149faa0865d003add0fd54ca49b9e0d39f4e94a99c1d8e",
    "contractible_z -1..5": "d85b7f27fd9b51b15139a32ee5753849cc706e7fb460ae103a8d6ad925937f7d",
    "contractible_z -1..5 0": "772cab124ce3ab8a88a60ed52c9c16701b1a18eba71070b687e645930848382f",
    "contractible_z -5..2": "32a2d88dab1c3a65ad82a4e8fa43d6be2b6d088593d8b0e8d9f240ba41de96c7",
    "contractible_z -6..5": "e4412ff6434c6f04992fe30fd97380af639d3b683831416893615f08295d38bd",
    "contractible_z -6..5 1": "d9e6a1b95ee0a7bfcef4fc498620714d026c7dbdfc451747e5cd86999403e2ec",
    "contractible_z -6..5 16": "0ae6be543a80f77a5007e8b6c9955759d3d5f9d1fffa32d3d4f6cf20da8c3f35",
    "contractible_z4 -4..6": "a9ecdb990e62c06f300ae75dbdc2b728e1123feed663a67029c23edd307d9150",
    "contractible_z4 -6..5": "2637b1d6427b76f9e6a514ce0db6a46f87061ddd03aa3d1dc2b1ae62ffeab0ff",
    "contractible_z4 -6..5 0": "ad5a0477661c3409256f63ecba0d81aed29f9fff09848374a805d5db15aa4f6e",
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
