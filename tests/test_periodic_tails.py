"""Periodic tails: the constructor checks exactly the valid complexes,
the dual is the degreewise transpose, `first_difference` finds a
difference exactly when one exists, and `Complex.below` keeps every
degree up to its top.

The oracle reads every degree of a wide window through `rank` and
`diff` of an unchecked complex; periods are at most 3 and explicit data
sits in -5..5, so a window of -60..60 shows every degree pattern the
tails repeat.
"""

import json

from hypothesis import assume, given, settings, strategies as st
import pytest

from homcert.cli import main
from homcert.complexes import (Complex, ComplexError, PeriodicTail, dualize_complex,
                               first_difference)
from homcert.documents import FORMAT_VERSION, parse_document
from homcert.matrices import Mat
from homcert.rings import Fp, Zmod, ZZ

WINDOW = range(-60, 61)
DEGREES = st.integers(-5, 5)


@st.composite
def tailed_data(draw, ring=None):
    """Ranks and differentials in -5..5, explicit zero ranks included,
    with a lower tail, an upper tail or both, over the given ring or a
    drawn one.  Over Z/4 the entries are 0 or 2, so any product of two
    differentials vanishes; over Z and F_5 the differentials are zero.
    Shapes follow the explicit ranks about half of the time."""
    if ring is None:
        ring = draw(st.sampled_from([Zmod(4), ZZ, Fp(5)]))
    entries = st.sampled_from((0, 2) if ring == Zmod(4) else (0,))
    ranks = draw(st.dictionaries(DEGREES, st.integers(0, 2), max_size=6))
    diffs = {}
    for j in draw(st.sets(DEGREES, max_size=5)):
        if draw(st.booleans()):
            rows, cols = ranks.get(j + 1, 0), ranks.get(j, 0)
        else:
            rows, cols = draw(st.integers(0, 2)), draw(st.integers(0, 2))
        diffs[j] = Mat(ring, rows, cols, tuple(draw(entries) for _ in range(rows * cols)))
    kind = draw(st.sampled_from(["below", "above", "both"]))
    below = PeriodicTail(-1, draw(DEGREES), draw(st.integers(1, 3))) \
        if kind != "above" else None
    above = PeriodicTail(1, draw(DEGREES), draw(st.integers(1, 3))) \
        if kind != "below" else None
    return ring, ranks, diffs, below, above


def valid_on_window(ring, ranks, diffs, below, above) -> bool:
    if below is not None and above is not None and below.threshold > above.threshold:
        return False
    c = Complex._trusted(ring, "left", ranks, diffs, below, above)
    for j in WINDOW:
        d = c.diff(j)
        if (d.rows, d.cols) != (c.rank(j + 1), c.rank(j)):
            return False
    return all((c.diff(j + 1) @ c.diff(j)).is_zero() for j in WINDOW[:-1])


@settings(max_examples=500, deadline=None, derandomize=True)
@given(tailed_data())
def test_constructor_accepts_exactly_the_valid_tails_and_the_dual_transposes(data):
    ring, ranks, diffs, below, above = data
    valid = valid_on_window(*data)
    try:
        c = Complex(ring, "left", ranks, diffs, below, above)
    except ComplexError:
        assert not valid
        return
    assert valid
    d = dualize_complex(c)
    for j in WINDOW:
        assert d.rank(j) == c.rank(-j)
        assert d.diff(j) == c.diff(-j - 1).transpose()
    Complex(d.ring, d.side, d.ranks, d.diffs, d.tail_below, d.tail_above)
    assert dualize_complex(d) == c


def _checked(ring, ranks, diffs, below, above) -> Complex:
    assume(valid_on_window(ring, ranks, diffs, below, above))
    return Complex(ring, "left", ranks, diffs, below, above)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_first_difference_finds_a_difference_exactly_when_one_exists(data):
    # b is another drawn complex, or a written otherwise in every degree
    a = _checked(*data.draw(tailed_data()))
    how = data.draw(st.sampled_from(["drawn", "below", "dual twice"]))
    if how == "drawn":
        b = _checked(*data.draw(tailed_data(a.ring)))
    elif how == "below":
        assume(a.tail_above is None)
        b = a.below(5)
    else:
        b = dualize_complex(dualize_complex(a))
    differs = any(a.rank(j) != b.rank(j) or a.diff(j) != b.diff(j) for j in WINDOW)
    j = first_difference(a, b)
    assert (j is not None) == differs and (how == "drawn" or j is None)
    if j is not None:
        # a term whose rank differs is named, not the differential into it
        assert a.rank(j) != b.rank(j) or a.rank(j + 1) == b.rank(j + 1) and a.diff(j) != b.diff(j)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(tailed_data(), DEGREES)
def test_below_keeps_every_degree_up_to_its_top(data, hi):
    c = _checked(*data)
    t = c.below(hi)
    assert t.tail_above is None
    Complex(t.ring, t.side, t.ranks, t.diffs, t.tail_below)
    for j in WINDOW:
        assert t.rank(j) == (c.rank(j) if j <= hi else 0), j
        assert t.diff(j) == c.diff(j) if j < hi else t.diff(j).is_zero(), j


def test_a_seam_hidden_by_explicit_entries_is_refused():
    # below -3 every degree repeats rank 2 and d^-2, a 1x2 matrix, which
    # fits from degree -5 downwards no longer
    with pytest.raises(ComplexError, match=r"degree (-\d+)") as err:
        Complex(ZZ, "left", {-3: 1, -2: 2, -1: 1},
                {-3: Mat.zero(ZZ, 2, 1), -2: Mat.zero(ZZ, 1, 2)},
                tail_below=PeriodicTail(-1, -2, 1))
    assert int(err.value.args[0].split("degree ")[1].split()[0]) <= -5


def test_a_folded_shape_is_checked_before_a_product_reads_it():
    # the upper tail repeats d^-1, a 0x2 matrix, in degree 2 and above,
    # where it maps rank 0 to rank 0
    with pytest.raises(ComplexError, match="in degree 2 is 0x2, expected 0x0"):
        Complex(ZZ, "left", {-1: 2},
                {-1: Mat.zero(ZZ, 0, 2), 0: Mat.zero(ZZ, 0, 0), 1: Mat.zero(ZZ, 0, 0)},
                tail_above=PeriodicTail(1, 0, 1))


def test_cli_dual_keeps_an_explicit_zero_rank(capsys, tmp_path):
    # rank 1 in every degree up to 1 but in degree 0, where the explicit
    # zero replaces the repeated rank; the dual flips that
    path = tmp_path / "c.json"
    path.write_text(json.dumps({
        "version": FORMAT_VERSION, "ring": {"kind": "Zmod", "n": 4}, "kind": "complex",
        "payload": {"side": "left", "ranks": [[0, 0], [1, 1]], "diffs": [],
                    "tail_below": {"direction": -1, "period": 1, "threshold": 1},
                    "tail_above": None}}))
    assert main(["dualize", str(path)]) == 0
    dual = parse_document(capsys.readouterr().out).payload
    assert [dual.rank(j) for j in range(-3, 4)] == [0, 0, 1, 0, 1, 1, 1]


def test_overlapping_tails_are_refused():
    two = Mat(Zmod(4), 1, 1, (2,))
    with pytest.raises(ComplexError, match="tails overlap"):
        Complex(Zmod(4), "left", {0: 1, 1: 1}, {0: two},
                tail_below=PeriodicTail(-1, 2, 1), tail_above=PeriodicTail(1, 1, 1))


@pytest.mark.parametrize("tails", [{"tail_below": PeriodicTail(1, 0, 1)},
                                   {"tail_above": PeriodicTail(-1, 0, 1)}])
def test_a_tail_in_the_other_slot_is_refused(tails):
    with pytest.raises(ComplexError, match="direction"):
        Complex(ZZ, "left", {0: 1}, {}, **tails)
