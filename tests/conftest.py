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
