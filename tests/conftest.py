import sys

import pytest

from homcert.rings import Fp, Zmod, ZZ

ALL_RINGS = [ZZ, Fp(5), Zmod(4)]


@pytest.fixture(params=ALL_RINGS, ids=lambda r: str(r))
def ring(request):
    return request.param


@pytest.fixture
def default_digit_limit():
    """Python's default int <-> str digit limit, restored afterwards."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(saved)


class Eliminations(list):
    """(rows, generators as column lists) of each run of the Hermite core,
    in order; `moduli` holds each run's modulus.  Over Z, `bareiss` holds
    each Bareiss pass and each replay of a pass's recorded steps, in
    order: "kernel" for a pass, always over one matrix alone (A for a
    kernel or a solve, A^T for a span), "replay" for a replay, which
    answers every solve; `passes` holds the rows of the matrix of each
    pass (A, or A^T), and `replays` the columns of B of each replay."""

    def __init__(self):
        super().__init__()
        self.moduli = []
        self.bareiss = []
        self.passes = []
        self.replays = []

    @staticmethod
    def stacked(a) -> tuple[int, list[list[int]]]:
        """The record of an elimination of [A; I], the form of A's kernel
        and solves mod n."""
        return (a.rows + a.cols, [col + [int(i == j) for i in range(a.cols)]
                                  for j, col in enumerate(a.columns())])


@pytest.fixture
def count_eliminations(monkeypatch):
    """A function that starts recording every elimination and returns the
    Eliminations it fills; a second call starts a fresh record.  It hooks
    the one Hermite core, so its packed callers (`_ModForm`,
    `colspan_canonical`) and the list adapter `_hnf` count alike, with
    the columns unpacked; over Z it hooks, apart, the Bareiss pass, which
    alone answers a kernel whose determinant is 1 or whose kernel is
    empty, and the replay of its steps on B, which answers each solve
    against the same matrix.  A pass over more columns than it pivots,
    such as one over [A | B], fails the recording test."""
    from homcert import matrices

    mod_hnf = matrices._mod_hnf
    bareiss, replay = matrices._bareiss, matrices._replay

    def start() -> Eliminations:
        calls = Eliminations()

        def packed(n, rows, active, first):
            w = matrices._width(n)
            calls.append((rows, [[a >> s & (1 << w) - 1 for s in range(0, w * rows, w)]
                                 for a in active]))
            calls.moduli.append(n)
            return mod_hnf(n, rows, active, first)

        def counted_bareiss(m, c):
            assert all(len(row) == c for row in m), "a Bareiss pass over [A | B]"
            calls.bareiss.append("kernel")
            calls.passes.append([row[:c] for row in m])
            return bareiss(m, c)

        def counted_replay(steps, cols):
            calls.bareiss.append("replay")
            calls.replays.append([list(v) for v in cols])
            return replay(steps, cols)

        monkeypatch.setattr(matrices, "_mod_hnf", packed)
        monkeypatch.setattr(matrices, "_bareiss", counted_bareiss)
        monkeypatch.setattr(matrices, "_replay", counted_replay)
        return calls

    return start
