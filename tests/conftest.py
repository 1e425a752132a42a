from fractions import Fraction

import pytest

from weylwalk import build_cartan_datum, generate_crystal
from weylwalk import paths as P
from weylwalk.charalg import CharacterAlgebra, tau_point


@pytest.fixture(scope="session")
def c2():
    return build_cartan_datum("C2")


@pytest.fixture(scope="session")
def a1():
    return build_cartan_datum("A1")


@pytest.fixture(scope="session")
def a2():
    return build_cartan_datum("A2")


def lit(datum, *points):
    """Path literal through the given ambient points, uniform time grid."""
    k = len(points) - 1
    return P.canonical_path(
        [Fraction(j, k) for j in range(k + 1)],
        [datum.realization.from_ambient(p) for p in points],
    )


@pytest.fixture(scope="session")
def c2_paths(c2):
    """The nine elementary paths of the eight-neighbor walk example."""
    z = (0, 0)
    return {
        "pi1": lit(c2, z, (1, 0)),
        "pi2": lit(c2, z, (0, 1)),
        "pibar2": lit(c2, z, (0, -1)),
        "pibar1": lit(c2, z, (-1, 0)),
        "gamma12": lit(c2, z, (1, 0), (1, 1)),
        "gamma1bar2": lit(c2, z, (1, 0), (1, -1)),
        "gamma2bar2": lit(c2, z, (0, 1), (0, 0)),
        "gamma2bar1": lit(c2, z, (0, 1), (-1, 1)),
        "gammabar2bar1": lit(c2, z, (0, -1), (-1, -1)),
    }


@pytest.fixture(scope="session")
def b_pi1(c2, c2_paths):
    return generate_crystal(c2, c2_paths["pi1"])


@pytest.fixture(scope="session")
def b_gamma12(c2, c2_paths):
    return generate_crystal(c2, c2_paths["gamma12"])


@pytest.fixture(scope="session")
def c2_algebra(c2):
    return CharacterAlgebra(c2)


@pytest.fixture(scope="session")
def a2_algebra(a2):
    return CharacterAlgebra(a2)


@pytest.fixture(scope="session")
def a1_algebra(a1):
    return CharacterAlgebra(a1)


@pytest.fixture()
def tau_half(c2):
    return tau_point(c2, [Fraction(1, 2), Fraction(1, 2)])


def partition_weight(datum, p1, p2):
    """C-type weight from partition coordinates (p1 >= p2 >= 0)."""
    fw = datum.realization.from_ambient((p1, p2))
    assert all(c.denominator == 1 for c in fw), "not in the weight lattice"
    return datum.weight(fw)
