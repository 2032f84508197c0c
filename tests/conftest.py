import pytest

import gor3.linalg
from gor3 import GradedIdeal, parse_poly
from gor3.cases import (
    ex_2_5_ideal,
    ex_3_7_ideal,
    ex_4_5_ideal,
    ex_4_9_ideal,
    five_gen_monomial_ideal,
    monomial_tower_ideal,
)

VARS = ["x", "y", "z"]


def poly(text, field=None):
    if field is None:
        return parse_poly(text, VARS)
    return parse_poly(text, VARS, field)


@pytest.fixture(scope="session")
def ex_2_5():
    return ex_2_5_ideal()


@pytest.fixture(scope="session")
def ex_3_7():
    return ex_3_7_ideal()


@pytest.fixture(scope="session")
def ex_4_5():
    return ex_4_5_ideal()


@pytest.fixture(scope="session")
def ex_4_9():
    return ex_4_9_ideal()


@pytest.fixture(scope="session")
def tower_d3():
    return monomial_tower_ideal(3)


@pytest.fixture(scope="session")
def tower_d4():
    return monomial_tower_ideal(4)


@pytest.fixture(scope="session")
def five_gen_dp2():
    return five_gen_monomial_ideal(2)


@pytest.fixture(scope="session")
def cubes():
    return GradedIdeal.from_strings(["x^3", "y^3", "z^3"])


@pytest.fixture
def rref_int_calls(monkeypatch):
    """The calls of rref_int, the exact QQ kernel behind gor3.linalg, in
    order, as (rows, pivots): a copy of the rows and the pivot columns it
    was given (None for the left-to-right pass).  Every argument is
    forwarded to the kernel as it came."""
    calls = []
    rref_int = gor3.linalg.rref_int

    def recorded(rows, *args, **kwargs):
        pivots = args[0] if args else kwargs.get("pivots")
        calls.append(([list(r) for r in rows], pivots))
        return rref_int(rows, *args, **kwargs)

    monkeypatch.setattr(gor3.linalg, "rref_int", recorded)
    return calls
