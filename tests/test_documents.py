import copy
import json
import pathlib
import sys
import threading

import pytest

from homcert.complexes import ChainMap, Complex, Homotopy
from homcert.documents import (FORMAT_VERSION, DocumentError, emit_document,
                               make_document, parse_document, unlimited_int_digits)
from homcert.matrices import Mat
from homcert.modules import FPModule
from homcert.rings import Zmod, ZZ
from homcert.verdicts import Verdict

FIXTURES = sorted((pathlib.Path(__file__).parent / "fixtures").glob("*.json"))
DOC = '{"version": "%s", ' % FORMAT_VERSION  # the head of a hand-written document


def test_fixture_corpus_is_large_enough():
    assert len(FIXTURES) >= 30


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
def test_fixture_roundtrip_byte_stable(path):
    text = path.read_text()
    doc = parse_document(text)
    assert emit_document(doc) == text


def test_emitted_documents_end_with_newline_and_sorted_keys():
    doc = make_document(ZZ, "matrix", Mat(ZZ, 1, 2, (1, 2)))
    text = emit_document(doc)
    assert text.endswith("\n")
    obj = json.loads(text)
    assert list(obj) == sorted(obj)
    assert text == json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def test_a_homotopy_in_a_verdict_is_encoded_as_a_chain_map_payload_is():
    # one encoder: a Homotopy inside verdict details lists its components
    # as the same [degree, matrix] pairs as a ChainMap payload
    c = Complex(ZZ, "left", {-1: 1, 0: 1, 1: 1}, {})
    components = {0: Mat(ZZ, 1, 1, (3,)), 1: Mat(ZZ, 1, 1, (-2,))}
    payload = emit_document(make_document(ZZ, "chain_map", ChainMap(c, c, components)))
    verdict = Verdict(True, "split_exact", {"homotopy": Homotopy(c, c, components)})
    detail = emit_document(make_document(ZZ, "verdict", verdict))
    mapped = json.loads(payload)["payload"]
    assert mapped["components"] == [[0, {"rows": 1, "cols": 1, "entries": [[3]]}],
                                    [1, {"rows": 1, "cols": 1, "entries": [[-2]]}]]
    assert json.loads(detail)["payload"]["details"]["homotopy"] == mapped


def test_a_detail_the_encoder_does_not_know_is_refused():
    doc = make_document(ZZ, "verdict", Verdict(True, "odd", {"value": object()}))
    with pytest.raises(TypeError):
        emit_document(doc)


def test_parse_reports_syntax_position():
    with pytest.raises(DocumentError, match="syntax error at line"):
        parse_document("{\n  broken\n}")


def test_parse_rejects_unknown_version_and_kind():
    base = '{"version": "%s", "ring": {"kind": "Z"}, "kind": "%s", "payload": {}}'
    with pytest.raises(DocumentError, match="version"):
        parse_document(base % ("99", "matrix"))
    with pytest.raises(DocumentError, match="unsupported format version '1'"):
        parse_document(base % ("1", "matrix"))
    with pytest.raises(DocumentError, match="payload kind"):
        parse_document(base % (FORMAT_VERSION, "novel"))


def test_parse_rejects_unknown_ring():
    with pytest.raises(DocumentError, match="ring"):
        parse_document(DOC + '"ring": {"kind": "Q"}, '
                       '"kind": "matrix", "payload": {}}')


def test_parse_rejects_noncanonical_entries():
    text = (DOC + '"ring": {"kind": "Zmod", "n": 4}, "kind": "matrix", '
            '"payload": {"rows": 1, "cols": 1, "entries": [[5]]}}')
    with pytest.raises(DocumentError, match="canonical"):
        parse_document(text)


def test_parse_rejects_wrong_entry_count():
    text = (DOC + '"ring": {"kind": "Z"}, "kind": "matrix", '
            '"payload": {"rows": 2, "cols": 2, "entries": [[1, 2]]}}')
    with pytest.raises(DocumentError, match="entry rows"):
        parse_document(text)


def test_parse_rejects_broken_differential():
    payload = {
        "side": "left",
        "ranks": [[-1, 1], [0, 1], [1, 1]],
        "diffs": [[-1, {"rows": 1, "cols": 1, "entries": [[1]]}],
                  [0, {"rows": 1, "cols": 1, "entries": [[1]]}]],
        "tail_below": None, "tail_above": None,
    }
    text = json.dumps({"version": FORMAT_VERSION, "ring": {"kind": "Z"},
                       "kind": "complex", "payload": payload})
    with pytest.raises(DocumentError, match="d\\^2"):
        parse_document(text)


def test_parse_rejects_nonzero_square_across_a_tail_seam():
    payload = {"side": "left", "ranks": [[0, 1], [1, 1]],
               "diffs": [[0, {"rows": 1, "cols": 1, "entries": [[1]]}]],
               "tail_below": {"direction": -1, "threshold": 0, "period": 1},
               "tail_above": None}
    text = json.dumps({"version": FORMAT_VERSION, "ring": {"kind": "Zmod", "n": 4},
                       "kind": "complex", "payload": payload})
    with pytest.raises(DocumentError, match="d\\^2"):
        parse_document(text)


def test_parse_rejects_component_shape_mismatch():
    cx = {"side": "left", "ranks": [[0, 1]], "diffs": [],
          "tail_below": None, "tail_above": None}
    payload = {"source": cx, "target": cx,
               "components": [[0, {"rows": 2, "cols": 1, "entries": [[1], [0]]}]]}
    text = json.dumps({"version": FORMAT_VERSION, "ring": {"kind": "Z"},
                       "kind": "chain_map", "payload": payload})
    with pytest.raises(DocumentError, match="^component in degree 0 has shape 2x1, expected 1x1$"):
        parse_document(text)


def test_parse_rejects_relation_that_does_not_sum_to_zero():
    payload = {"a": {"rows": 1, "cols": 1, "entries": [[1]]},
               "z": {"rows": 1, "cols": 1, "entries": [[1]]}}
    text = json.dumps({"version": FORMAT_VERSION, "ring": {"kind": "Z"},
                       "kind": "relation", "payload": payload})
    with pytest.raises(DocumentError):
        parse_document(text)


def test_periodic_tails_survive_roundtrip():
    path = pathlib.Path(__file__).parent / "fixtures" / "complex_z4_periodic.json"
    doc = parse_document(path.read_text())
    c: Complex = doc.payload
    assert not c.is_bounded
    assert c.rank(-9) == 1 and c.diff(-9)[0, 0] == 2
    assert c.rank(9) == 1 and c.diff(7)[0, 0] == 2


@pytest.mark.parametrize("tamper, message", [
    (lambda t: t.update(depth=0), "package depth must be at least 1"),
    (lambda t: t.update(depth="24"), "depth must be an integer, got '24'"),
    (lambda t: t.update(depth=4097), "depth must be at most 4096"),
], ids=["depth_0", "depth_not_an_integer", "depth_4097"])
def test_a_package_resolution_is_derived_again(tamper, message, capsys, tmp_path):
    # P is resolved from the module to the package's depth as it is read,
    # so a depth that no resolution search takes is refused, exit 2
    from homcert.cli import main

    fixtures = pathlib.Path(__file__).parent / "fixtures"

    def check_qiso(package) -> int:
        return main(["check-qiso", str(package), str(fixtures / "complex_z4_0.json"),
                     "--window=-3..3"])

    assert check_qiso(fixtures / "package_z4_cyclic2.json") == 0
    capsys.readouterr()
    doc = _fixture_json("package_z4_cyclic2")
    tamper(doc["payload"])
    with pytest.raises(DocumentError, match=message):
        parse_document(json.dumps(doc))
    bad = tmp_path / "package.json"
    bad.write_text(json.dumps(doc))
    assert check_qiso(bad) == 2 and message in capsys.readouterr().err


def test_packages_and_trees_store_no_derived_values():
    payload = _fixture_json("package_z4_cyclic2")["payload"]
    assert set(payload) == {"module", "depth"}
    nodes = [_fixture_json("tree_z_cyclic6")["payload"]]
    while nodes:
        node = nodes.pop()
        assert set(node) - {"target"} == {"kind", "payload", "shift", "components", "children"}
        nodes.extend(node["children"])


# one case per payload kind, then the objects nested in payloads and the
# document itself: (fixture, the object that gets the key, its name in errors)
UNKNOWN_KEY_SITES = [
    ("matrix_z", lambda d: d["payload"], "matrix"),
    ("module_z_0", lambda d: d["payload"], "module"),
    ("complex_z_0", lambda d: d["payload"], "complex"),
    ("chain_map_z", lambda d: d["payload"], "chain map"),
    ("relation_z", lambda d: d["payload"], "relation"),
    ("certificate_z", lambda d: d["payload"], "certificate"),
    ("tree_z_cyclic6", lambda d: d["payload"], "build tree"),
    ("verdict_sample", lambda d: d["payload"], "verdict"),
    ("package_z4_cyclic2", lambda d: d["payload"], "generator package"),
    ("module_z_0", lambda d: d["payload"]["presentation"], "matrix"),
    ("complex_z4_periodic", lambda d: d["payload"]["tail_below"], "tail"),
    ("chain_map_z", lambda d: d["payload"]["source"], "complex"),
    ("tree_z_cyclic6", lambda d: d["payload"]["children"][0], "build tree"),
    ("complex_z_0", lambda d: d["ring"], "ring"),
    ("complex_z4_0", lambda d: d["ring"], "ring"),
    ("complex_z_0", lambda d: d, "document"),
]


@pytest.mark.parametrize("fixture, site, what", UNKNOWN_KEY_SITES,
                         ids=[f"{f}-{w.replace(' ', '_')}-{i}"
                              for i, (f, _, w) in enumerate(UNKNOWN_KEY_SITES)])
def test_an_unknown_key_is_refused_by_name(fixture, site, what):
    doc = _fixture_json(fixture)
    parse_document(json.dumps(doc))
    site(doc)["bogus"] = 0
    with pytest.raises(DocumentError, match=f"^{what} has an unknown key 'bogus'$"):
        parse_document(json.dumps(doc))


def test_a_format_3_package_relabelled_format_4_exits_2(capsys, tmp_path):
    # the stored copies of format 3 are not dropped without a word
    from homcert.cli import main

    doc = _fixture_json("package_z4_cyclic2")
    doc["payload"].update(dual="anything", complete=0)
    path = tmp_path / "package.json"
    path.write_text(json.dumps(doc))
    target = pathlib.Path(__file__).parent / "fixtures" / "complex_z4_0.json"
    assert main(["check-qiso", str(path), str(target), "--window=-3..3"]) == 2
    assert "generator package has an unknown key 'complete'" in capsys.readouterr().err


def test_parse_rejects_string_rank():
    text = (DOC + '"ring": {"kind": "Z"}, "kind": "complex", '
            '"payload": {"side": "left", "ranks": [[0, "a"]], "diffs": []}}')
    with pytest.raises(DocumentError, match="rank must be an integer"):
        parse_document(text)


@pytest.mark.parametrize("field,value", [("rows", "1"), ("cols", 1.0), ("rows", True)])
def test_parse_rejects_non_integer_shape(field, value):
    payload = {"rows": 1, "cols": 1, "entries": [[1]], field: value}
    text = json.dumps({"version": FORMAT_VERSION, "ring": {"kind": "Z"}, "kind": "matrix",
                       "payload": payload})
    with pytest.raises(DocumentError, match=f"matrix {field} must be an integer"):
        parse_document(text)


@pytest.mark.parametrize("ring", ['{"kind": "Z"}', '{"kind": "Zmod", "n": 4}'])
def test_parse_rejects_boolean_matrix_entry(ring):
    text = (DOC + f'"ring": {ring}, "kind": "matrix", '
            '"payload": {"rows": 1, "cols": 2, "entries": [[true, 0]]}}')
    with pytest.raises(DocumentError, match="matrix entry must be an integer"):
        parse_document(text)


@pytest.mark.parametrize("ring,entries,message", [
    ('{"kind": "Zmod", "n": 4}', [[0, 1], [3, 4], [True, "2"]],
     "entry 4 is not a canonical representative over Z/4"),
    ('{"kind": "Zmod", "n": 4}', [[0, 1], ["2", -1], [0, 5]],
     "matrix entry must be an integer, got '2'"),
    ('{"kind": "Fp", "n": 5}', [[1, -1], [2.0, 7]],
     "entry -1 is not a canonical representative over F5"),
    ('{"kind": "Z"}', [[-9, 10 ** 30], [None, 1.5]],
     "matrix entry must be an integer, got None"),
])
def test_parse_names_the_first_bad_entry(ring, entries, message):
    payload = json.dumps({"rows": len(entries), "cols": 2, "entries": entries})
    text = DOC + f'"ring": {ring}, "kind": "matrix", "payload": {payload}}}'
    with pytest.raises(DocumentError) as info:
        parse_document(text)
    assert str(info.value) == message


def test_parse_refuses_a_negative_column_count():
    # with no rows no entry check sees cols; with rows, each row's length does
    from homcert.matrices import MatrixError

    head = DOC + '"ring": {"kind": "Zmod", "n": 4}, "kind": "matrix", "payload": '
    with pytest.raises(MatrixError, match="negative dimension"):
        parse_document(head + '{"rows": 0, "cols": -1, "entries": []}}')
    with pytest.raises(DocumentError, match="matrix rows must have -1 entries"):
        parse_document(head + '{"rows": 1, "cols": -1, "entries": [[]]}}')
    assert parse_document(head + '{"rows": 0, "cols": 3, "entries": []}}').payload \
        == Mat.zero(Zmod(4), 0, 3)


def test_parse_rejects_non_integer_tail_and_shift():
    tail = (DOC + '"ring": {"kind": "Zmod", "n": 4}, "kind": "complex", '
            '"payload": {"side": "left", "ranks": [[0, 1]], "diffs": [], '
            '"tail_below": {"direction": -1, "threshold": "0", "period": 1}}}')
    with pytest.raises(DocumentError, match="tail threshold must be an integer"):
        parse_document(tail)
    zero = '{"side": "left", "ranks": [], "diffs": []}'
    tree = (DOC + '"ring": {"kind": "Z"}, "kind": "build_tree", '
            f'"payload": {{"kind": "leaf", "target": {zero}, "payload": {zero}, '
            '"shift": false, "children": [], "components": []}}')
    with pytest.raises(DocumentError, match="shift must be an integer"):
        parse_document(tree)


def _fixture_json(name: str) -> dict:
    return json.loads((pathlib.Path(__file__).parent / "fixtures" / f"{name}.json").read_text())


@pytest.mark.parametrize("field, value, message", [
    ("ok", "false", "verdict ok must be a boolean"),
    ("ok", None, "verdict ok must be a boolean"),
    ("window_relative", "no", "verdict window_relative must be a boolean"),
    ("code", 7, "verdict code must be a string"),
    ("details", ["window"], "verdict details must be an object"),
])
def test_verdict_fields_must_have_their_json_types(field, value, message):
    doc = _fixture_json("verdict_sample")
    if value is None:
        del doc["payload"][field]
    else:
        doc["payload"][field] = value
    with pytest.raises(DocumentError, match=message):
        parse_document(json.dumps(doc))


@pytest.mark.parametrize("fixture, field, message", [
    ("complex_z_0", "ranks", "ranks must be \\[degree, rank\\] pairs"),
    ("complex_z_0", "diffs", "diffs must be \\[degree, matrix\\] pairs"),
    ("chain_map_z", "components", "components must be \\[degree, matrix\\] pairs"),
    ("tree_z_cyclic6", "components", "components must be \\[degree, matrix\\] pairs"),
    ("tree_z_cyclic6", "children", "bad cone node"),
], ids=["ranks", "diffs", "chain_map_components", "tree_components", "tree_children"])
@pytest.mark.parametrize("value", [5, None, {"0": 1}, "ab"])
def test_pair_and_children_fields_must_be_lists(fixture, field, message, value):
    doc = _fixture_json(fixture)
    doc["payload"][field] = value
    with pytest.raises(DocumentError, match=message):
        parse_document(json.dumps(doc))


@pytest.mark.parametrize("tamper, message", [
    (lambda t: t["children"][0].update(payload=None), "bad leaf node"),
    (lambda t: t["children"][0].update(children=[t["children"][1]]), "bad leaf node"),
    (lambda t: t["children"].pop(), "bad cone node"),
    (lambda t: t.update(payload=t["target"]), "bad cone node"),
    (lambda t: t.update(kind="susp"), "bad susp node"),
], ids=["leaf_without_payload", "leaf_with_child", "cone_with_one_child",
        "cone_with_payload", "susp_with_two_children"])
def test_build_tree_nodes_have_their_arity(tamper, message):
    doc = _fixture_json("tree_z_cyclic6")
    tamper(doc["payload"])
    with pytest.raises(DocumentError, match=message):
        parse_document(json.dumps(doc))


def _loop_tree_json() -> dict:
    """The build tree of Z/4 / (2): a loop whose body is one level, the
    cone of its back node (S^-1 S^2) and the top cone."""
    from homcert.duality import decompose_resolution
    from homcert.generator import resolve_module

    q, _ = resolve_module(FPModule.cyclic(Zmod(4), "left", 2))
    doc = json.loads(emit_document(make_document(Zmod(4), "build_tree", decompose_resolution(q))))
    assert doc["payload"]["kind"] == "loop"
    assert doc["payload"]["children"][0]["children"][0]["children"][0]["children"][0] \
        == {"kind": "back", "payload": None, "shift": 0, "components": [], "children": []}
    return doc


def _body(t):
    return t["children"][0]


def _back_edge(t):
    """The susp node right above the back node."""
    return _body(t)["children"][0]["children"][0]


def _unloop(t):
    target, body = t["target"], t["children"][0]
    t.clear()
    t.update(body, target=target)


@pytest.mark.parametrize("tamper, message", [
    (_unloop, "a back node outside a loop"),
    (lambda t: _back_edge(t)["children"][0].update(
        kind="leaf", payload=_body(t)["children"][1]["children"][0]["payload"]),
     "a loop body must end in exactly one back node"),
    (lambda t: _body(t)["children"][1]["children"][0].update(kind="back", payload=None),
     "a loop body must end in exactly one back node"),
    (lambda t: _back_edge(t)["children"][0].update(kind="loop", children=[copy.deepcopy(_body(t))]),
     "a loop nested inside a loop"),
    (lambda t: _body(t)["children"][1].update(kind="loop", children=[copy.deepcopy(_body(t))], components=[]),
     "a loop nested inside a loop"),
    (lambda t: t.update(children=[_body(t)["children"][0]]), "a loop's body must be a cone"),
    (lambda t: t["children"].append(t["children"][0]), "bad loop node"),
    (lambda t: _back_edge(t)["children"][0].update(children=[copy.deepcopy(_body(t))]), "bad back node"),
    (lambda t: _back_edge(t)["children"][0].update(payload=t["target"]), "bad back node"),
], ids=["back_outside_a_loop", "body_ends_in_a_leaf", "second_back_node", "loop_at_the_back",
        "loop_in_the_body", "body_not_a_cone", "loop_with_two_children",
        "back_with_a_child", "back_with_a_payload"])
def test_loops_and_back_nodes_have_their_place(tamper, message, tmp_path, capsys):
    from homcert.cli import main

    doc = _loop_tree_json()
    assert parse_document(json.dumps(doc)).payload.kind == "loop"
    tamper(doc["payload"])
    with pytest.raises(DocumentError, match=message):
        parse_document(json.dumps(doc))
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(doc))
    assert main(["dualize", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_a_format_3_tree_with_a_residual_leaf_still_parses():
    # decompose built these before loops: a leaf that keeps Q's tail
    from homcert.duality import BuildTree, rebuild_verify
    from homcert.generator import resolve_module

    q, _ = resolve_module(FPModule.cyclic(Zmod(4), "left", 2))
    text = emit_document(make_document(Zmod(4), "build_tree", BuildTree("leaf", q, q)))
    tree = parse_document(text).payload
    assert tree.has_residual() and rebuild_verify(tree).code == "rebuilt_identically"


@pytest.mark.parametrize("tamper", [
    lambda t: t.pop("target"),
    lambda t: t["children"][0].update(target=t["target"]),
    lambda t: t["children"][1].update(target=None),
], ids=["root_without_target", "leaf_with_target", "leaf_with_null_target"])
def test_build_tree_stores_its_target_on_the_root_only(tamper):
    doc = _fixture_json("tree_z_cyclic6")
    tamper(doc["payload"])
    with pytest.raises(DocumentError, match="target on its root and on no other node"):
        parse_document(json.dumps(doc))


def test_deeply_nested_documents_are_refused():
    with pytest.raises(DocumentError, match="nested too deeply"):
        parse_document("[" * 100_000 + "]" * 100_000)


def test_make_fixtures_reproduces_the_corpus(tmp_path, capsys):
    import make_fixtures

    make_fixtures.main(tmp_path)
    made = sorted(tmp_path.glob("*.json"))
    assert [p.name for p in made] == [p.name for p in FIXTURES]
    for path, fixture in zip(made, FIXTURES):
        assert path.read_bytes() == fixture.read_bytes(), path.name


@pytest.mark.parametrize("fixture, tamper, message", [
    ("complex_z_0", lambda p: p["ranks"].append([0, 2**64]), "rank must be at most 4096"),
    ("complex_z_0", lambda p: p["ranks"].append([-2**64, 1]), "degree must be at most 4096"),
    ("complex_z4_periodic", lambda p: p["tail_below"].update(period=2**64),
     "tail period must be at most 4096"),
    ("matrix_z", lambda p: p.update(rows=5000, entries=[[0] * p["cols"]] * 5000),
     "matrix rows must be at most 4096"),
    ("tree_z_cyclic6", lambda p: p.update(shift=-2**64), "shift must be at most 4096"),
], ids=["rank", "degree", "tail_period", "matrix_rows", "shift"])
def test_sizes_beyond_the_limit_are_refused(fixture, tamper, message):
    doc = _fixture_json(fixture)
    tamper(doc["payload"])
    with pytest.raises(DocumentError, match=message):
        parse_document(json.dumps(doc))


def test_large_prime_moduli_are_decided_at_once():
    doc = _fixture_json("module_f5_0")
    doc["ring"]["n"] = 2**61 - 1  # prime: trial division would take 2**29 steps
    assert parse_document(json.dumps(doc)).ring.n == 2**61 - 1
    doc["ring"]["n"] = 2**61 + 1  # divisible by 3
    with pytest.raises(DocumentError, match="Fp requires a prime"):
        parse_document(json.dumps(doc))
    doc["ring"]["n"] = 2**89 - 1  # prime, beyond the exact Miller-Rabin bound
    with pytest.raises(DocumentError, match="prime below"):
        parse_document(json.dumps(doc))


def test_entries_beyond_the_default_digit_limit_round_trip(default_digit_limit):
    m = Mat(ZZ, 1, 1, (10**5000,))  # 5,001 digits
    text = emit_document(make_document(ZZ, "matrix", m))
    assert sys.get_int_max_str_digits() == default_digit_limit
    assert parse_document(text).payload == m
    assert sys.get_int_max_str_digits() == default_digit_limit


def test_digit_limit_stays_lifted_until_the_last_caller_leaves(default_digit_limit):
    # two callers (say, two threads) whose lifts overlap without nesting
    first, second = unlimited_int_digits(), unlimited_int_digits()
    first.__enter__()
    second.__enter__()
    first.__exit__(None, None, None)
    assert sys.get_int_max_str_digits() == 0
    second.__exit__(None, None, None)
    assert sys.get_int_max_str_digits() == default_digit_limit


def test_concurrent_callers_never_see_the_limit_restored_early(default_digit_limit):
    m = Mat(ZZ, 1, 1, (10**5000,))
    doc = make_document(ZZ, "matrix", m)
    errors = []

    def worker():
        try:
            for _ in range(20):
                assert parse_document(emit_document(doc)).payload == m
        except Exception as exc:  # reported by the main thread below
            errors.append(exc)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert sys.get_int_max_str_digits() == default_digit_limit
