import json
import pathlib
import random
import sys
import tracemalloc

import pytest

from homcert.cli import main
from homcert.complexes import (ChainMap, Complex, PeriodicTail, contraction,
                               null_homotopy_witness)
from homcert.documents import (FORMAT_VERSION, SIZE_LIMIT, emit_document, make_document,
                               parse_document)
from homcert.duality import MAX_LEVELS
from homcert.flatness import FlatRelation
from homcert.generator import build_generator
from homcert.matrices import Mat, MatrixError, kernel_right
from homcert.rings import Fp, ZZ, Zmod
from homcert.samplers import random_fp_module, random_matrix

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
DOC = '{"version": "%s", ' % FORMAT_VERSION  # the head of a hand-written document


def fx(name: str) -> str:
    return str(FIXTURES / f"{name}.json")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


COMMANDS = ("resolve", "dualize", "generator", "check-qiso", "homology", "flat-cert",
            "decompose", "split-check")


def out_doc(text: str):
    return parse_document(text)


# -- happy paths -------------------------------------------------------


@pytest.mark.parametrize("name", ["module_z_cyclic6", "module_z4_cyclic2",
                                  "module_z_0", "module_f5_0", "module_z4_0"])
def test_resolve_emits_complex(capsys, name):
    code, out, _ = run(capsys, "resolve", fx(name))
    assert code == 0
    assert out_doc(out).kind == "complex"


@pytest.mark.parametrize("name", ["module_z_cyclic6", "complex_z_mult2",
                                  "chain_map_z", "chain_map_z4"])
def test_dualize_accepts_three_kinds(capsys, name):
    code, out, _ = run(capsys, "dualize", fx(name))
    assert code == 0
    assert out_doc(out).kind == parse_document(
        pathlib.Path(fx(name)).read_text()).kind


def test_dualize_keeps_a_component_in_a_tail_degree(capsys, tmp_path):
    # a map of the periodic Z/4 complex whose one component sits in
    # degree 5, in its upper tail, beyond the explicit terms 0 and 1: the
    # dual carries its transpose in degree -5
    doc = parse_document(pathlib.Path(fx("complex_z4_periodic")).read_text())
    c, three = doc.payload, Mat(doc.ring, 1, 1, (3,))
    path = tmp_path / "tail_map.json"
    path.write_text(emit_document(make_document(doc.ring, "chain_map",
                                                ChainMap(c, c, {5: three}))))
    code, out, _ = run(capsys, "dualize", str(path))
    assert code == 0 and out_doc(out).payload.components == {-5: three}


def test_generator_emits_package(capsys):
    code, out, _ = run(capsys, "generator", fx("module_z4_cyclic2"))
    assert code == 0
    doc = out_doc(out)
    assert doc.kind == "generator_package"
    assert doc.payload.complete


MODULE_FIXTURES = sorted(p.stem for p in FIXTURES.glob("module_*.json"))


@pytest.mark.parametrize("source", [*MODULE_FIXTURES, ZZ, Fp(5), Zmod(4), Zmod(12)], ids=str)
def test_a_machine_generator_eliminates_nothing(capsys, tmp_path, count_eliminations, source):
    # the document is {depth, module}: M*, the comparison and P are derived
    # by whoever reads the package, and only the text summary reads P here
    if isinstance(source, str):
        paths = [fx(source)]
    else:
        rng = random.Random(f"generator:{source}")
        paths = [tmp_path / f"module_{i}.json" for i in range(8)]
        for path in paths:
            m = random_fp_module(rng, source, rng.choice(["left", "right"]))
            path.write_text(emit_document(make_document(source, "module", m)))
    for path in map(str, paths):
        doc = parse_document(pathlib.Path(path).read_text())
        pkg = build_generator(doc.payload, 24)
        calls = count_eliminations()
        assert run(capsys, "generator", path) == (
            0, emit_document(make_document(doc.ring, "generator_package", pkg)), "")
        assert calls == [] and calls.bareiss == []
        code, out, _ = run(capsys, "generator", path, "--format=text")
        assert code == 0 and "resolution" in out


def test_check_qiso_passes_on_orthogonal_target(capsys, tmp_path):
    target = tmp_path / "q.json"
    target.write_text(pathlib.Path(fx("complex_z4_0")).read_text())
    code, out, _ = run(capsys, "check-qiso", fx("package_z4_cyclic2"),
                       str(target), "--window=-3..3")
    assert code == 0
    doc = out_doc(out)
    assert doc.kind == "verdict" and doc.payload.ok


def test_check_qiso_above_every_hom_term_is_exact(capsys):
    # no Hom term reaches degrees 5..9; P*^0, the comparison's target, is kept
    code, out, _ = run(capsys, "check-qiso", fx("package_z4_cyclic2"),
                       fx("complex_z4_0"), "--window=5..9")
    assert code == 0
    doc = out_doc(out)
    assert (doc.payload.ok, doc.payload.code) == (True, "hom_exact")


def test_homology_window(capsys):
    code, out, _ = run(capsys, "homology", fx("complex_z_mult2"), "--window=-1..0")
    assert code == 0
    doc = out_doc(out)
    assert doc.payload.code == "homology_computed"
    h0 = doc.payload.details["0"]
    assert h0["presentation"]["entries"] == [[2]]
    hm1 = doc.payload.details["-1"]
    assert hm1["presentation"]["rows"] == 0


def test_homology_text_format(capsys):
    code, out, _ = run(capsys, "--format", "text", "homology",
                       fx("complex_z_mult2"), "--window=-1..0")
    assert code == 0
    assert "H^0 = R/(2)" in out
    assert "H^-1 = 0" in out


def test_homology_asks_one_engine_for_the_whole_window(capsys, count_eliminations):
    # the periodic Z/4 fixture repeats one differential in every degree:
    # one engine for the window eliminates it once, then each of the 101
    # degrees costs two eliminations for its homology module (the kernel
    # of [Z | B] and its canonical span), 203 in all; an engine per
    # degree eliminated the differential again in every degree (303)
    from homcert.complexes import homology
    from homcert.verdicts import Verdict

    doc = parse_document(pathlib.Path(fx("complex_z4_periodic")).read_text())
    want = {str(j): homology(doc.payload, j) for j in range(-50, 51)}
    calls = count_eliminations()
    code, out, _ = run(capsys, "homology", fx("complex_z4_periodic"), "--window=-50..50")
    assert code == 0 and len(calls) == 203
    assert out == emit_document(make_document(doc.ring, "verdict",
                                              Verdict(True, "homology_computed", want)))


@pytest.mark.parametrize("tag", ["z", "f5", "z4"])
def test_flat_cert_free_case(capsys, tag):
    code, out, _ = run(capsys, "flat-cert", fx(f"relation_{tag}"))
    assert code == 0
    assert out_doc(out).kind == "certificate"


def test_flat_cert_cycle_hypothesis_failure_exits_1(capsys, tmp_path):
    rel = tmp_path / "rel.json"
    rel.write_text(json.dumps({
        "version": FORMAT_VERSION, "ring": {"kind": "Zmod", "n": 4}, "kind": "relation",
        "payload": {"a": {"rows": 1, "cols": 1, "entries": [[2]]},
                    "z": {"rows": 1, "cols": 1, "entries": [[2]]}}}))
    code, out, _ = run(capsys, "flat-cert", str(rel), fx("complex_z4_periodic"),
                       "--degree=0")
    assert code == 1
    doc = out_doc(out)
    assert doc.kind == "verdict"
    assert doc.payload.code == "hom_hypothesis_fails"


@pytest.mark.parametrize("tag", ["z", "f5", "z4"])
def test_flat_cert_certifies_a_relation_among_boundaries(capsys, tmp_path, tag):
    # a . z = 0 with z = d^(j-1) w k^T for a kernel basis k of the row a,
    # so the columns of z are boundaries in degree j
    x = parse_document(pathlib.Path(fx(f"contractible_{tag}")).read_text()).payload
    ring, rng = x.ring, random.Random(tag)
    lo, hi = x.support()
    j = min(k for k in range(lo + 1, hi + 1) if x.rank(k - 1) and x.rank(k))
    a = random_matrix(rng, ring, 1, 3)
    k = kernel_right(a)
    z = x.diff(j - 1) @ random_matrix(rng, ring, x.rank(j - 1), k.cols, 3) @ k.transpose()
    assert not z.is_zero()
    rel = tmp_path / "rel.json"
    rel.write_text(emit_document(make_document(ring, "relation", FlatRelation(ring, a, z))))
    code, out, _ = run(capsys, "flat-cert", str(rel), fx(f"contractible_{tag}"),
                       f"--degree={j}")
    assert code == 0
    doc = out_doc(out)
    assert doc.kind == "certificate"
    ast, q = doc.payload.ast, doc.payload.q
    assert z == q @ ast.transpose() and (a @ ast).is_zero()


def test_decompose_right_module(capsys):
    code, out, _ = run(capsys, "decompose", fx("module_z_right6"))
    assert code == 0
    doc = out_doc(out)
    assert doc.kind == "build_tree"
    assert doc.payload.free_leaf_count() == 2


@pytest.mark.parametrize("tag", ["z", "f5", "z4"])
def test_split_check_contractible_passes(capsys, tag):
    code, out, _ = run(capsys, "split-check", fx(f"contractible_{tag}"),
                       "--window=-6..5")
    assert code == 0
    assert out_doc(out).payload.code == "split_exact"
    # a bounded complex is decided whole: without a window, the same bytes
    assert run(capsys, "split-check", fx(f"contractible_{tag}")) == (code, out, "")


def test_split_check_failure_exits_1(capsys):
    code, out, _ = run(capsys, "split-check", fx("complex_z_mult2"),
                       "--window=-4..3")
    assert code == 1
    assert not out_doc(out).payload.ok
    assert run(capsys, "split-check", fx("complex_z_mult2")) == (code, out, "")


@pytest.mark.parametrize("extra", [[], ["--bound=1"]], ids=["tail", "bound"])
def test_split_check_without_a_window_where_one_is_read_exits_2(capsys, extra):
    code, out, err = run(capsys, "split-check", fx("complex_z4_periodic"), *extra)
    assert code == 2 and out == ""
    assert "--window" in err and "Traceback" not in err


@pytest.mark.parametrize("bound", ["0", "1", "16"])
def test_split_check_with_bound_reads_no_window_of_a_bounded_complex(capsys, bound):
    # a bounded complex is decided whole: no window, and a narrow one, give
    # the verdict of a wide one
    code, out, err = run(capsys, "split-check", fx("contractible_z"), f"--bound={bound}")
    assert (code, err) == (0, "") and out_doc(out).payload.code == "collapsed"
    for window in ["--window=0..0", "--window=-40..40"]:
        assert run(capsys, "split-check", fx("contractible_z"), f"--bound={bound}", window) == (
            code, out, err)


@pytest.mark.parametrize("window", ["0..1", "0..0"])
def test_split_check_of_a_periodic_complex_without_an_interior_degree_exits_1(capsys, window):
    code, out, _ = run(capsys, "split-check", fx("complex_z4_periodic"), f"--window={window}")
    assert code == 1
    verdict = out_doc(out).payload
    assert verdict.code == "window_too_small" and verdict.window_relative
    assert verdict.details == {"window": [int(x) for x in window.split("..")]}


def test_split_check_with_bound_runs_collapse(capsys, tag="z"):
    code, out, _ = run(capsys, "split-check", fx(f"contractible_{tag}"),
                       "--window=-6..5", "--bound=1")
    assert code == 0
    assert out_doc(out).payload.code == "collapsed"


# -- text summaries ----------------------------------------------------


@pytest.mark.parametrize("argv,text", [
    (["homology", fx("complex_z_mult2"), "--window=-1..0"], "H^-1 = 0\nH^0 = R/(2)\n"),
    (["dualize", fx("module_z4_cyclic2")], "dual module: R/(2)\n"),
    (["generator", fx("module_z4_cyclic2")],
     "package for R/(2); resolution in degrees -2..0, periodic with period 1\n"),
    (["decompose", fx("module_z4_cyclic2")], "2 free leaves; resolution periodic with period 1\n"),
    (["decompose", fx("module_z_right6")], "2 free leaves; resolution finite\n"),
    # P of Z/4 / (2) is periodic; --depth 1 cuts it before the period shows
    (["generator", fx("module_z4_cyclic2"), "--depth", "1"],
     "package for R/(2); resolution in degrees -1..0, truncated at depth 1\n"),
    (["resolve", fx("module_z4_cyclic2")], "resolution in degrees -2..0, periodic with period 1\n"),
    (["resolve", fx("module_z_cyclic6")], "resolution in degrees -1..0, finite\n"),
    (["decompose", fx("module_z4_cyclic2"), "--depth", "1"],
     "2 free leaves; resolution truncated at depth 1\n"),
], ids=["homology", "dualize", "generator", "decompose-z4", "decompose-z", "generator-depth-1",
        "resolve-z4", "resolve-z", "decompose-z4-depth-1"])
def test_text_summary_is_built_only_in_text_format(capsys, monkeypatch, argv, text):
    # the machine bytes of generator and decompose are pinned by the
    # golden digests; here machine output must not change when building
    # a summary is refused, and decompose walks its tree once for the
    # free leaves, in its check, and once more for the residual flag
    # only in text format
    from homcert import cli
    from homcert.duality import BuildTree

    code, machine, _ = run(capsys, *argv)
    assert code == 0 and json.loads(machine)["version"] == FORMAT_VERSION
    walks = []
    for name in ("free_leaf_count", "has_residual"):
        walk = getattr(BuildTree, name)
        monkeypatch.setattr(BuildTree, name,
                            lambda t, name=name, walk=walk: walks.append(name) or walk(t))
    invariants = cli._module_invariants

    def refuse(m):
        raise AssertionError("a text summary was built in machine format")

    decompose = argv[0] == "decompose"
    monkeypatch.setattr(cli, "_module_invariants", refuse)
    assert run(capsys, *argv) == (0, machine, "")
    assert walks == (["free_leaf_count"] if decompose else [])
    walks.clear()
    monkeypatch.setattr(cli, "_module_invariants", invariants)
    assert run(capsys, "--format", "text", *argv) == (0, text, "")
    assert walks == (["free_leaf_count", "has_residual"] if decompose else [])


# -- machine output is itself round-trip stable ------------------------


def test_cli_output_is_byte_stable(capsys):
    code, out, _ = run(capsys, "resolve", fx("module_z_cyclic6"))
    assert code == 0
    from homcert.documents import emit_document
    assert emit_document(parse_document(out)) == out


# -- exit-status matrix for errors -------------------------------------


def test_wrong_document_kind_exits_2(capsys):
    code, _, err = run(capsys, "resolve", fx("relation_z"))
    assert code == 2 and "expected" in err


def test_verdict_with_coercible_fields_exits_2(capsys, tmp_path):
    doc = json.loads((FIXTURES / "verdict_sample.json").read_text())
    doc["payload"].update(ok="false", code=7, window_relative="no")
    bad = tmp_path / "verdict.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run(capsys, "resolve", str(bad))
    assert code == 2 and "verdict code must be a string" in err


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "resolve", str(FIXTURES / "nope.json"))
    assert code == 2


def test_malformed_json_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    code, _, err = run(capsys, "homology", str(bad), "--window=0..0")
    assert code == 2 and "syntax" in err


def test_bad_window_exits_2(capsys):
    code, _, err = run(capsys, "homology", fx("complex_z_mult2"), "--window=oops")
    assert code == 2 and "window" in err


@pytest.mark.parametrize("argv, message", [
    (("homology", fx("complex_z_mult2"), "--window=3..1"), "empty window"),
    (("resolve", fx("module_z_cyclic6"), "--depth", "abc"), "expected an integer"),
])
def test_empty_window_and_non_integer_depth_exit_2(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("window", [f"-{SIZE_LIMIT + 1}..0", f"0..{10**8}",
                                    "-100000000..100000000"])
def test_window_beyond_the_size_limit_exits_2(capsys, window):
    # a window of +-10**8 on a periodic complex would take the homology of
    # every degree in it
    code, out, err = run(capsys, "split-check", fx("complex_z4_periodic"),
                         f"--window={window}")
    assert code == 2 and out == ""
    assert f"at most {SIZE_LIMIT}" in err


def test_decompose_depth_limit(capsys, tmp_path):
    module = fx("module_z4_cyclic2")  # its resolution is periodic: a loop at any depth
    code, out, _ = run(capsys, "decompose", module, "--depth", str(MAX_LEVELS))
    assert code == 0 and out == run(capsys, "decompose", module)[1]
    tree = out_doc(out).payload
    assert tree.kind == "loop" and not tree.has_residual() and tree.free_leaf_count() == 2
    # a bounded complex longer than the limit still ends in a residual leaf
    ranks = {-j: 1 for j in range(2 * MAX_LEVELS + 4)}
    long = tmp_path / "long.json"
    long.write_text(emit_document(make_document(ZZ, "complex", Complex(ZZ, "left", ranks, {}))))
    code, out, _ = run(capsys, "decompose", str(long), "--depth", str(MAX_LEVELS))
    assert code == 0
    tree = out_doc(out).payload
    assert tree.has_residual() and tree.free_leaf_count() == 2 * MAX_LEVELS
    code, out, err = run(capsys, "decompose", module, "--depth",
                         str(MAX_LEVELS + 1))
    assert code == 2 and out == ""
    assert f"--depth: must be <= {MAX_LEVELS}" in err


def _z4_twos(lowest: int, zero_at: int, period: int) -> Complex:
    """Z/4 in every degree <= 0 with d = 2 but d^zero_at = 0, explicit
    from lowest up and repeating with the given period below it."""
    ring = Zmod(4)
    diffs = {j: Mat(ring, 1, 1, (2,)) for j in range(lowest, 0)}
    diffs[zero_at] = Mat(ring, 1, 1, (0,))
    return Complex(ring, "left", {j: 1 for j in range(lowest, 1)}, diffs,
                   tail_below=PeriodicTail(-1, lowest, period))


@pytest.mark.parametrize("lowest, zero_at, period", [(-400, -200, 400), (-2, -3001, 2)],
                         ids=["long_period", "deep_entry"])
def test_decompose_unrolls_a_loop_that_would_close_too_deep(capsys, tmp_path, lowest,
                                                             zero_at, period):
    # a loop of 200 levels, or one starting below level 1500, would nest
    # past the recursion limit: the tree stops after MAX_LEVELS
    # levels in a residual leaf that keeps Q's tail, at every --depth
    q = _z4_twos(lowest, zero_at, period)
    target = tmp_path / "complex.json"
    target.write_text(emit_document(make_document(q.ring, "complex", q)))
    outs = []
    for depth in ("8", str(MAX_LEVELS)):
        code, out, err = run(capsys, "decompose", str(target), "--depth", depth)
        assert (code, err) == (0, "")
        outs.append(out)
    assert outs[0] == outs[1] and '"kind":"loop"' not in outs[0]
    tree = out_doc(outs[0]).payload
    assert tree.free_leaf_count() == 2 * MAX_LEVELS
    assert [leaf.payload.is_bounded for leaf in tree.leaves() if leaf.residual] == [False]


def test_decompose_checks_every_level_of_a_periodic_target(capsys, monkeypatch):
    # a zero glue map across the loop's back edge is still a chain map,
    # and the tree it gives agrees with Q on Q's explicit band (-2, 0);
    # the rebuild is compared with Q in every degree
    from dataclasses import replace

    from homcert import cli
    from homcert.duality import decompose_resolution, rebuild_verify
    from homcert.generator import resolve_module
    from homcert.modules import FPModule
    from homcert.rings import Zmod

    q, _ = resolve_module(FPModule.cyclic(Zmod(4), "left", 2), 8)
    tree = decompose_resolution(q, 8)
    (body,) = tree.children  # one level: its glue meets the back node
    tampered = replace(tree, children=(replace(body, components={}),))
    assert rebuild_verify(tampered).code == "rebuild_mismatch"
    module = fx("module_z4_cyclic2")
    assert run(capsys, "decompose", module)[0] == 0
    # no window narrows the comparison: --window is an unknown option
    code, out, err = run(capsys, "decompose", module, "--window=-2..0")
    assert code == 2 and out == "" and "--window" in err
    monkeypatch.setattr(cli, "decompose_resolution", lambda q, depth: tampered)
    code, out, _ = run(capsys, "decompose", module)
    assert code == 1
    v = out_doc(out).payload
    assert v.code == "rebuild_mismatch" and v.details == {"degree": -6}
    assert not v.window_relative


def test_format_version_1_exits_2(capsys, tmp_path):
    doc = json.loads(pathlib.Path(fx("module_z_cyclic6")).read_text())
    doc["version"] = "1"
    old = tmp_path / "old.json"
    old.write_text(json.dumps(doc))
    code, out, err = run(capsys, "resolve", str(old))
    assert code == 2 and out == ""
    assert "unsupported format version '1'" in err


def test_format_version_2_exits_2(capsys, tmp_path):
    doc = json.loads(pathlib.Path(fx("package_z4_cyclic2")).read_text())
    doc["version"] = "2"
    old = tmp_path / "old.json"
    old.write_text(json.dumps(doc))
    code, out, err = run(capsys, "check-qiso", str(old), fx("complex_z4_0"))
    assert code == 2 and out == ""
    assert "unsupported format version '2'" in err


def test_format_version_3_package_exits_2(capsys, tmp_path):
    doc = json.loads(pathlib.Path(fx("package_z4_cyclic2")).read_text())
    doc["version"] = "3"
    old = tmp_path / "old.json"
    old.write_text(json.dumps(doc))
    code, out, err = run(capsys, "check-qiso", str(old), fx("complex_z4_0"))
    assert code == 2 and out == ""
    assert "unsupported format version '3'" in err


def test_depth_of_resolve_and_generator_is_at_most_the_size_limit(capsys, tmp_path):
    # a package document's depth is at most SIZE_LIMIT, so the generator
    # that writes one takes no deeper --depth
    code, out, _ = run(capsys, "generator", fx("module_z4_cyclic2"), "--depth", str(SIZE_LIMIT))
    assert code == 0
    package = tmp_path / "package.json"
    package.write_text(out)
    code, out, _ = run(capsys, "check-qiso", str(package), fx("complex_z4_0"), "--window=-3..3")
    assert code == 0 and out_doc(out).payload.code == "hom_exact"
    for command in ("resolve", "generator"):
        code, out, err = run(capsys, command, fx("module_z4_cyclic2"), "--depth",
                             str(SIZE_LIMIT + 1))
        assert code == 2 and out == ""
        assert f"--depth: must be <= {SIZE_LIMIT}" in err


def test_deeply_nested_document_exits_2(capsys, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(capsys, "homology", str(deep), "--window=0..0")
    assert code == 2 and out == ""
    assert "nested too deeply" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["resolve", "generator", "decompose"])
def test_negative_depth_exits_2(capsys, command):
    code, out, err = run(capsys, command, fx("module_z_cyclic6"), "--depth", "-3")
    assert code == 2 and out == ""
    assert "--depth: must be >= 1" in err and "Traceback" not in err


def test_negative_bound_exits_2(capsys):
    code, out, err = run(capsys, "split-check", fx("contractible_z"), "--window=-6..5",
                         "--bound", "-1")
    assert code == 2 and out == ""
    assert "--bound: must be >= 0" in err


def test_string_rank_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(DOC + '"ring": {"kind": "Z"}, "kind": "complex", '
                   '"payload": {"side": "left", "ranks": [[0, "a"]], "diffs": []}}')
    code, _, err = run(capsys, "homology", str(bad), "--window=0..0")
    assert code == 2 and "rank must be an integer" in err


@pytest.mark.parametrize("field, value, message", [
    ("ranks", 5, "ranks must be [degree,"),
    ("diffs", 5, "diffs must be [degree,"),
    ("ranks", [[-2, 1], [-1, 1], [0, 2**64], [1, 1], [2, 1]], "rank must be at most"),
])
def test_malformed_pairs_field_exits_2(capsys, tmp_path, field, value, message):
    doc = json.loads(pathlib.Path(fx("complex_z_0")).read_text())
    doc["payload"][field] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "homology", str(bad), "--window=0..0")
    assert code == 2 and out == "" and message in err


def test_entries_beyond_the_default_digit_limit_round_trip(capsys, tmp_path,
                                                           default_digit_limit):
    # Python refuses int <-> str conversions past 4300 digits by default
    digits = "7" * 5000
    module = tmp_path / "huge.json"
    module.write_text(DOC + '"ring": {"kind": "Z"}, "kind": "module", '
                      '"payload": {"side": "left", "presentation": '
                      f'{{"rows": 1, "cols": 1, "entries": [[{digits}]]}}}}}}')
    code, out, _ = run(capsys, "resolve", str(module))
    assert code == 0
    assert digits in out


def test_cli_leaves_the_digit_limit_as_it_found_it(capsys, tmp_path, default_digit_limit):
    assert run(capsys, "resolve", fx("module_z_cyclic6"))[0] == 0
    assert run(capsys, "--format", "text", "resolve", fx("module_z_cyclic6"))[0] == 0
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert run(capsys, "resolve", str(bad))[0] == 2
    assert sys.get_int_max_str_digits() == default_digit_limit


def test_seed_flag_is_gone(capsys):
    assert run(capsys, "--seed", "3", "resolve", fx("module_z_cyclic6"))[0] == 2


def test_cli_builds_its_parser_once(capsys, monkeypatch):
    import argparse
    import types

    from homcert import cli

    built = []

    def counting_parser(*args, **kwargs):
        built.append(kwargs.get("prog"))
        return argparse.ArgumentParser(*args, **kwargs)

    monkeypatch.setattr(cli, "argparse",
                        types.SimpleNamespace(**{**vars(argparse),
                                                 "ArgumentParser": counting_parser}))
    cli.build_parsers.cache_clear()
    try:
        assert run(capsys, "resolve", fx("module_z_cyclic6"))[0] == 0
        first = list(built)
        assert run(capsys, "dualize", fx("module_z_cyclic6"))[0] == 0
    finally:
        cli.build_parsers.cache_clear()
    # the shared --format parent, then one parser per command word
    assert first == [None] + [f"homcert {c}" for c in COMMANDS]
    assert built == first


@pytest.mark.parametrize("argv,code,out_has,err_has", [
    (["--format", "text", "resolve", fx("module_z_cyclic6")], 0, ["finite"], []),
    (["resolve", fx("module_z_cyclic6"), "--format", "text"], 0, ["finite"], []),
    (["--format=text", "resolve", fx("module_z_cyclic6")], 0, ["finite"], []),
    (["-h"], 0, COMMANDS, []),
    (["--help"], 0, COMMANDS, []),
    (["resolve", "-h"], 0, ["homcert resolve", "--depth"], []),
    ([], 2, [], ["a command is required"]),
    (["frobnicate"], 2, [], ["frobnicate"]),
    (["--format", "bogus", "resolve", "x"], 2, [], ["bogus"]),
], ids=["format-before", "format-after", "format-equals", "h", "help", "command-h",
        "no-arguments", "unknown-command", "bad-format"])
def test_the_command_line_grammar(capsys, argv, code, out_has, err_has):
    got, out, err = run(capsys, *argv)
    assert got == code
    assert all(s in out for s in out_has) and all(s in err for s in err_has)
    assert "Traceback" not in err


def test_unknown_command_exits_2(capsys):
    assert run(capsys, "frobnicate")[0] == 2


def test_help_exits_0(capsys):
    assert run(capsys, "--help")[0] == 0


def test_nonzero_square_across_a_tail_seam_exits_2(capsys, tmp_path):
    bad = tmp_path / "seam.json"
    bad.write_text(DOC + '"ring": {"kind": "Zmod", "n": 4}, "kind": "complex", '
                   '"payload": {"side": "left", "ranks": [[0, 1], [1, 1]], '
                   '"diffs": [[0, {"rows": 1, "cols": 1, "entries": [[1]]}]], '
                   '"tail_below": {"direction": -1, "threshold": 0, "period": 1}}}')
    code, out, err = run(capsys, "homology", str(bad), "--window=-2..0")
    assert code == 2 and out == ""
    assert "d^2 != 0" in err and "Traceback" not in err


def test_decompose_of_an_upper_tail_exits_2(capsys, tmp_path):
    upper = tmp_path / "upper.json"
    upper.write_text(DOC + '"ring": {"kind": "Zmod", "n": 4}, "kind": "complex", '
                     '"payload": {"side": "left", "ranks": [[-1, 1], [0, 1]], '
                     '"diffs": [[-1, {"rows": 1, "cols": 1, "entries": [[2]]}]], '
                     '"tail_above": {"direction": 1, "threshold": 0, "period": 1}}}')
    code, out, err = run(capsys, "decompose", str(upper))
    assert code == 2 and out == ""
    assert "resolution must live in degrees <= 0" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [["homology", "--window=-6..-4"], ["decompose"]])
def test_rank_inside_a_tail_that_the_tail_does_not_fit_exits_2(capsys, tmp_path, argv):
    bad = tmp_path / "inside.json"
    bad.write_text(DOC + '"ring": {"kind": "Zmod", "n": 4}, "kind": "complex", '
                   '"payload": {"side": "left", "ranks": [[0, 1], [-1, 1], [-5, 3]], '
                   '"diffs": [[-1, {"rows": 1, "cols": 1, "entries": [[2]]}]], '
                   '"tail_below": {"direction": -1, "threshold": -1, "period": 1}}}')
    code, out, err = run(capsys, argv[0], str(bad), *argv[1:])
    assert code == 2 and out == ""
    assert "differential in degree -6 is 1x1, expected 3x1" in err


def test_chain_map_between_sides_exits_2(capsys, tmp_path):
    doc = json.loads(pathlib.Path(fx("chain_map_z")).read_text())
    doc["payload"]["target"]["side"] = "right"
    path = tmp_path / "sides.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "dualize", str(path))
    assert code == 2 and out == ""
    assert "from a left complex to a right one" in err and "Traceback" not in err


def test_a_hom_complex_beyond_the_size_limit_is_refused_before_it_is_allocated():
    # ranks 64 in degrees 0 and 1 on both sides: the Hom differential in
    # degree -1 would be 8192 x 4096, an entry list of 256 MB; the guard
    # fires before it is allocated
    x, y = (Complex(ZZ, "left", {0: 64, 1: 64}, {}) for _ in range(2))
    tracemalloc.start()
    try:
        with pytest.raises(MatrixError, match=f"33554432 cells, more than {SIZE_LIMIT ** 2}"):
            null_homotopy_witness(ChainMap(x, y, {}))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 22, peak


def test_split_check_of_a_large_zero_complex_exits_1_in_little_memory(capsys, tmp_path):
    # ranks 64 in degrees 0 and 1, no differential: the contraction builds
    # no Hom complex, and the sweep names the first degree with homology
    path = tmp_path / "big.json"
    path.write_text(DOC + '"ring": {"kind": "Z"}, "kind": "complex", '
                    '"payload": {"side": "left", "ranks": [[0, 64], [1, 64]]}}')
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "split-check", str(path), "--window=-2..3")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1 and err == ""
    verdict = out_doc(out).payload
    assert verdict.code == "not_exact" and verdict.details["degree"] == 0
    assert peak < 2 ** 22, peak


def test_split_check_refuses_a_projectivity_system_beyond_the_size_limit(capsys, tmp_path):
    # Z/4 in rank 65 with d = 2 I in every degree: exact, and the cycle
    # module is presented by 2 I, whose Kronecker system would have 65**4
    # cells, about 272 MB; it is refused before anything of that size is
    # built
    r, ring = 65, Zmod(4)
    c = Complex(ring, "left", {0: r, 1: r}, {0: Mat.identity(ring, r).scale(2)},
                tail_below=PeriodicTail(-1, 0, 1), tail_above=PeriodicTail(1, 1, 1))
    path = tmp_path / "wide.json"
    path.write_text(emit_document(make_document(ring, "complex", c)))
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "split-check", str(path), "--window=-2..2")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and out == ""
    assert f"{r ** 4} cells, more than {SIZE_LIMIT ** 2}" in err
    assert peak < 2 ** 22, peak


def test_a_contraction_beyond_the_size_limit_builds_no_identity(monkeypatch):
    # ranks 4096 in degrees 0 and 1 and no differential: an identity or a
    # zero differential alone would hold 4096**2 entries
    c = Complex(ZZ, "left", {0: SIZE_LIMIT, 1: SIZE_LIMIT}, {})
    def refuse(*args):
        raise AssertionError("a matrix was built")
    monkeypatch.setattr(Mat, "identity", staticmethod(refuse))
    monkeypatch.setattr(Mat, "zero", staticmethod(refuse))
    assert contraction(c) is None
