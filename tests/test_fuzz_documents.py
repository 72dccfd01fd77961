"""Mutations of the fixture documents: type swaps, dropped keys,
truncated text and huge integers.

Parsing refuses a mutated document with DocumentError or accepts it; an
accepted document whose keys all survived emits the mutated bytes back,
and every accepted document's emission parses back to the same bytes.
Through the CLI every mutated document ends in exit code 0, 1 or 2.
"""

import contextlib
import io
import json
import pathlib

from hypothesis import HealthCheck, given, settings, strategies as st

from homcert.cli import main
from homcert.documents import (DocumentError, emit_document, parse_document,
                               unlimited_int_digits)

FIXTURES = {p.stem: p.read_text()
            for p in sorted((pathlib.Path(__file__).parent / "fixtures").glob("*.json"))}
SWAPS = [None, True, 0, -1, 1.5, "x", [], {}]
HUGE = st.one_of(st.integers(min_value=2**63, max_value=2**256),
                 st.integers(max_value=-2**63, min_value=-2**256),
                 st.just(10**5000))
# per payload kind, the commands that read it (one input argument); other
# kinds go to dualize, which refuses them
COMMANDS = {
    "module": [["resolve"], ["generator"], ["decompose"], ["dualize"]],
    "complex": [["homology", "--window=-2..2"], ["split-check", "--window=-4..4"],
                ["split-check", "--window=-4..4", "--bound=1"], ["decompose"],
                ["dualize"]],
    "chain_map": [["dualize"]],
    "relation": [["flat-cert"]],
}
FUZZ = settings(max_examples=150, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])


def _paths(obj, prefix=()):
    yield prefix
    children = obj.items() if isinstance(obj, dict) else \
        enumerate(obj) if isinstance(obj, list) else ()
    for key, value in children:
        yield from _paths(value, prefix + (key,))


def _at(obj, path):
    for key in path:
        obj = obj[key]
    return obj


@st.composite
def mutated(draw):
    """(fixture name, mutated text, whether every key survived)."""
    name = draw(st.sampled_from(sorted(FIXTURES)))
    text = FIXTURES[name]
    how = draw(st.sampled_from(["swap", "drop", "truncate", "huge"]))
    if how == "truncate":
        return name, text[:draw(st.integers(0, len(text) - 1))], False
    obj = json.loads(text)
    paths = [p for p in _paths(obj)
             if how == "swap" or (p and how == "drop")
             or (how == "huge" and type(_at(obj, p)) is int)]
    path = draw(st.sampled_from(paths))
    if how == "drop":
        del _at(obj, path[:-1])[path[-1]]
    else:
        old = _at(obj, path)
        new = draw(HUGE) if how == "huge" else \
            draw(st.sampled_from([v for v in SWAPS if type(v) is not type(old)]))
        if not path:
            obj = new
        else:
            _at(obj, path[:-1])[path[-1]] = new
    with unlimited_int_digits():
        return name, json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n", how != "drop"


@FUZZ
@given(mutated())
def test_mutated_documents_are_refused_or_round_trip(case):
    _, text, keys_survive = case
    try:
        doc = parse_document(text)
    except DocumentError:
        return
    out = emit_document(doc)
    if keys_survive:
        assert out == text
    assert emit_document(parse_document(out)) == out


@FUZZ
@given(case=mutated(), pick=st.integers(0, 4))
def test_cli_answers_mutated_documents_with_an_exit_code(tmp_path_factory, case, pick):
    name, text, _ = case
    kind = json.loads(FIXTURES[name])["kind"]
    commands = COMMANDS.get(kind, [["dualize"]])
    command = commands[pick % len(commands)]
    path = tmp_path_factory.getbasetemp() / f"fuzz_{name}.json"
    path.write_text(text)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main([command[0], str(path), *command[1:]])
    assert code in (0, 1, 2)
