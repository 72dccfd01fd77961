import pytest

import mutants


@pytest.mark.parametrize("m", mutants.MUTANTS, ids=lambda m: m.name)
def test_each_mutant_edits_one_place_in_its_file(m):
    # the gate itself (python tests/mutants.py) runs outside tier-1; this
    # keeps its table in step with the code it mutates
    assert m.old != m.new
    assert (mutants.ROOT / m.path).read_text().count(m.old) == 1
    assert all((mutants.ROOT / t.split("::")[0]).is_file() for t in m.tests)


def test_mutant_names_are_unique():
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS) >= 8
