"""The Pitman transform P_w0 and the closed forms it rests on.

The one-pass tensor transform is checked against the repeated tensor-rule
raising it replaced and against the path-level transform of the
concatenation; the prefix positions against the path-level transform of each
prefix; the path-level transform against repeated raising on integral paths
and against a second reduced word of w0 off the integers; the string lengths
read off path minima against counts along the crystal edges and against
operator iteration.
"""

import random
from fractions import Fraction
from itertools import product as iproduct

import pytest

from weylwalk import build_cartan_datum, weyl_group
from weylwalk import markov as M
from weylwalk import paths as P
from weylwalk.cartan import longest_word, positive_roots, reflect
from weylwalk.charalg import CharacterAlgebra
from weylwalk.crystal import ModuleSpec, TensorNode, tensor_eps_phi

from oracles import repeated_raising_path_pitman, repeated_raising_pitman

F = Fraction

NAMED = ([f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 9)]
         + [f"C{n}" for n in range(2, 9)] + [f"D{n}" for n in range(4, 9)]
         + ["E6", "E7", "E8", "F4", "G2"])


def _fundamental_crystals(label):
    datum = build_cartan_datum(label)
    algebra = CharacterAlgebra(datum)
    return datum, [algebra.cache.get(datum.weight(tuple(int(j == i) for j in range(datum.rank))))
                   for i in range(datum.rank)]


def _check_node(datum, node):
    raised = M.pitman(datum, node)
    assert raised == repeated_raising_pitman(datum, node)
    assert raised.path() == M.pitman(datum, node.path())
    assert all(tensor_eps_phi(raised, i)[0] == 0 for i in range(datum.rank))
    positions = M.pitman_prefix_weights(datum, node)
    assert len(positions) == len(node.factors)
    for k, pos in enumerate(positions, start=1):
        endpoint = M.pitman(datum, TensorNode(node.factors[:k]).path()).endpoint()
        assert tuple(F(c) for c in pos) == endpoint


# --- reduced word of w0 -----------------------------------------------------------


@pytest.mark.parametrize("label", NAMED)
def test_longest_word_is_reduced_and_reaches_minus_rho(label):
    datum = build_cartan_datum(label)
    word = longest_word(datum)
    assert len(word) == len(positive_roots(datum))
    x = (1,) * datum.rank
    for i in word:
        x = reflect(datum.matrix, i, x)
    assert x == (-1,) * datum.rank


@pytest.mark.parametrize("spec", ["A3", "C3", "G2", ((2, -3), (-1, 2))])
def test_longest_word_spells_the_longest_element(spec):
    datum = build_cartan_datum(spec)
    x = tuple(range(1, datum.rank + 1))
    for i in reversed(longest_word(datum)):
        x = reflect(datum.matrix, i, x)
    longest = max(weyl_group(datum), key=lambda w: len(w.word))
    assert x == longest.apply_fw(tuple(range(1, datum.rank + 1)))


# --- one-pass tensor transform ----------------------------------------------------


@pytest.mark.parametrize("label", ["A2", "C2", "G2", "B3", "D4"])
def test_one_pass_pitman_on_fundamental_crystals(label):
    datum, crystals = _fundamental_crystals(label)
    first = crystals[0]
    for ell in (1, 2):
        for combo in iproduct(range(len(first)), repeat=ell):
            _check_node(datum, TensorNode(tuple((first, i) for i in combo)))
    pool = [(c, i) for c in crystals for i in range(len(c))]
    rng = random.Random(label)
    for _ in range(120):
        ell = rng.randint(1, 3)
        _check_node(datum, TensorNode(tuple(rng.choice(pool) for _ in range(ell))))


def test_one_pass_pitman_on_a2_cube():
    datum, crystals = _fundamental_crystals("A2")
    pool = [(c, i) for c in crystals for i in range(len(c))]
    for combo in iproduct(pool, repeat=3):
        _check_node(datum, TensorNode(combo))


def test_one_pass_pitman_on_mixed_module_nodes(c2, c2_algebra):
    spec = ModuleSpec(((c2.weight((1, 0)), 1), (c2.weight((0, 1)), 1)))
    pool = [(c, i) for c, _ in c2_algebra.module_crystals(spec) for i in range(len(c))]
    assert len(pool) == 9
    for ell in (1, 2, 3):
        for combo in iproduct(pool, repeat=ell):
            _check_node(c2, TensorNode(combo))


# --- path-level transform ---------------------------------------------------------


def _random_path(rng, rank, den):
    steps = [tuple(F(rng.randint(-4, 4), den) for _ in range(rank))
             for _ in range(rng.randint(1, 4))]
    return P.from_displacements(steps, dim=rank)


def _last_positive_word(datum):
    """A reduced word of w0 from the walk from rho that reflects in the last
    positive coordinate, where ``longest_word`` takes the first."""
    x, word = (1,) * datum.rank, []
    while any(c > 0 for c in x):
        word.append(max(k for k, c in enumerate(x) if c > 0))
        x = reflect(datum.matrix, word[-1], x)
    return tuple(word)


@pytest.mark.parametrize("label", ["A2", "C2", "G2"])
def test_path_pitman_off_the_integers_is_dominant_and_word_free(label):
    datum = build_cartan_datum(label)
    other = _last_positive_word(datum)
    assert other != longest_word(datum)
    rng = random.Random(label)
    for _ in range(100):
        path = _random_path(rng, datum.rank, 2)
        raised = M.pitman(datum, path)
        assert P.is_dominant_path(raised)
        again = path
        for i in reversed(other):
            again = P.pitman_letter(datum, again, i)
        assert again == raised


@pytest.mark.parametrize("label", ["A2", "C2", "G2", "B3", "A3"])
def test_path_pitman_on_integral_paths_equals_repeated_raising(label):
    datum = build_cartan_datum(label)
    rng = random.Random(label)
    for _ in range(60):
        path = _random_path(rng, datum.rank, 1)
        assert M.pitman(datum, path) == repeated_raising_path_pitman(datum, path)


def test_pitman_letter_subtracts_the_running_minimum(c2):
    # h_1 runs 0, -1/2, 1: the first segment is reflected by s_1, as it sets
    # the running minimum, and the second is kept; alpha_1 = (2, -1)
    path = P.from_displacements([(F(-1, 2), F(1)), (F(3, 2), F(-1))], dim=2)
    raised = P.pitman_letter(c2, path, 0)
    assert raised.points == ((0, 0), (F(1, 2), F(1, 2)), (2, F(-1, 2)))
    assert P.apply_e(c2, path, 0) is None


# --- eps / phi read off path minima -------------------------------------------


def _string_length(crystal, idx, i, edge):
    steps = 0
    while (idx, i) in edge:
        idx = edge[(idx, i)]
        steps += 1
    return steps


@pytest.mark.parametrize("label,weights", [
    ("A2", [(1, 0), (0, 1), (1, 1)]),
    ("C2", [(1, 0), (0, 1), (1, 1), (2, 0)]),
    ("G2", [(1, 0), (0, 1), (1, 1)]),
    ("B3", [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
    ("D4", [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]),
    ("F4", [(1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]),
])
def test_crystal_eps_phi_are_string_lengths(label, weights):
    datum = build_cartan_datum(label)
    algebra = CharacterAlgebra(datum)
    for fw in weights:
        crystal = algebra.cache.get(datum.weight(fw))
        longest = [0] * datum.rank
        for idx in range(len(crystal)):
            for i in range(datum.rank):
                eps = _string_length(crystal, idx, i, crystal.e_edge)
                phi = _string_length(crystal, idx, i, crystal.f_edge)
                assert (crystal.eps[idx][i], crystal.phi[idx][i]) == (eps, phi)
                longest[i] = max(longest[i], eps + phi)
        assert crystal.kappa0().fw == tuple(max(m, 1) - 1 for m in longest)


def _iterated_counts(datum, path, i):
    counts = []
    for op in (P.apply_e, P.apply_f):
        n, cur = 0, op(datum, path, i)
        while cur is not None:
            n, cur = n + 1, op(datum, cur, i)
        counts.append(n)
    return tuple(counts)


@pytest.mark.parametrize("label", ["C2", "G2", "B3"])
def test_eps_phi_matches_operator_iteration_on_concatenations(label):
    datum, crystals = _fundamental_crystals(label)
    pool = [c.nodes[i] for c in crystals for i in range(len(c))]
    rng = random.Random(label)
    for _ in range(40):
        path = P.concat_all([rng.choice(pool) for _ in range(rng.randint(1, 4))])
        for i in range(datum.rank):
            assert P.eps_phi(path, i) == _iterated_counts(datum, path, i)


def test_eps_phi_matches_operator_iteration_on_rational_paths(c2):
    """Off the lattice the counts are the minima rounded down."""
    rng = random.Random(5)
    for _ in range(60):
        steps = [tuple(F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(2))
                 for _ in range(rng.randint(1, 4))]
        path = P.from_displacements(steps, dim=2)
        for i in range(2):
            assert P.eps_phi(path, i) == _iterated_counts(c2, path, i)
