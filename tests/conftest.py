from fractions import Fraction

import pytest

from qschur.hecke import AlgebraContext
from qschur.schur import SchurContext


def specialize_vector(e, spec):
    """The coordinates of a generic element at a rational point, through
    `ExactScalar.specialize`: the reference that elements built over a
    point ring (`AKElement.vector`) are compared against."""
    index = e.ctx.basis_index()
    vec = [Fraction(0)] * len(index)
    for key, coeff in e.terms.items():
        vec[index[key]] = coeff.specialize(spec)
    return vec


@pytest.fixture(scope="session")
def ak22():
    return AlgebraContext(2, 2)


@pytest.fixture(scope="session")
def ak32():
    return AlgebraContext(3, 2)


@pytest.fixture(scope="session")
def ak23():
    return AlgebraContext(2, 3)


@pytest.fixture(scope="session")
def schur22():
    return SchurContext(2, 2, (2, 2))


@pytest.fixture(scope="session")
def schur21():
    return SchurContext(2, 1, (2,))
