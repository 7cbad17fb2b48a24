import itertools

import pytest

from bck import enumerate_algebras


@pytest.fixture(scope="session")
def catalog3():
    return enumerate_algebras(3)


@pytest.fixture(scope="session")
def catalog4():
    return enumerate_algebras(4)


@pytest.fixture(scope="session")
def catalog5():
    return enumerate_algebras(5)


@pytest.fixture(scope="session")
def small_catalogs(catalog3, catalog4, catalog5):
    """Catalogs for orders 1 through 5, keyed by order."""
    return {
        1: enumerate_algebras(1),
        2: enumerate_algebras(2),
        3: catalog3,
        4: catalog4,
        5: catalog5,
    }


# The property flags and atoms of an algebra from their definitions, cell by
# cell: the oracle of the flag kernels, imported by the tests that use it.
def _flags_by_definition(alg):
    els = alg.elements
    pairs = list(itertools.product(els, els))
    return (
        all(alg.leq(x, y) or alg.leq(y, x) for x, y in pairs),
        all(alg.meet(x, y) == alg.meet(y, x) for x, y in pairs),
        all(alg.op(x, y) == alg.op(alg.op(x, y), y) for x, y in pairs),
        all(alg.op(x, alg.op(y, x)) == x for x, y in pairs),
        {x for x in els if x and not any(y and y != x and alg.leq(y, x) for y in els)},
    )
