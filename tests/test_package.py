"""The package namespace and the semantics of the value classes.

``weylwalk`` resolves its public names on first use; the value classes are
hand-written ``__slots__`` classes, so their equality, hashing and
immutability are checked here directly.
"""

import copy
import importlib
import os
import pickle
import subprocess
import sys
from fractions import Fraction as F

import pytest

import weylwalk
from weylwalk import cartan, markov as M, montecarlo as MC, paths as P
from weylwalk.charalg import TauPoint, tau_point
from weylwalk.crystal import ModuleSpec, TensorNode

from oracles import value_at

# the public names, spelled out here so that the lazy table cannot drop one unseen
EXPORTS = {
    "cartan": ["CartanDatum", "Weight", "WeylElement", "act", "build_cartan_datum",
               "chamber_position", "positive_roots", "weyl_group"],
    "charalg": ["CharacterAlgebra", "ExponentPolynomial", "TauPoint", "tau_point"],
    "crystal": ["CrystalCache", "CrystalGraph", "ModuleSpec", "TensorNode",
                "count_f_multiplicity", "count_multiplicity", "tensor_apply_e",
                "tensor_apply_f", "tensor_eps_phi"],
    "markov": ["CrystalDistribution", "TransitionTable", "build_distribution",
               "doob_transform", "hchain_matrix", "pitman", "restricted_table",
               "state_closure", "twisted_tau"],
    "paths": ["PiecewisePath", "apply_e", "apply_f", "canonical_path", "concat", "dual",
              "eps_phi", "height_function_extrema", "path_weight", "straight_path"],
}


@pytest.mark.parametrize("module,name", [(m, n) for m, names in EXPORTS.items()
                                         for n in names])
def test_public_name_is_the_submodule_object(module, name):
    namespace = {}
    exec(f"from weylwalk import {name}", namespace)
    assert namespace[name] is getattr(importlib.import_module(f"weylwalk.{module}"), name)


def test_star_import_and_unknown_names():
    assert sorted(weylwalk.__all__) == sorted(n for names in EXPORTS.values() for n in names)
    with pytest.raises(AttributeError, match="no_such_name"):
        weylwalk.no_such_name
    with pytest.raises(ImportError):
        exec("from weylwalk import no_such_name", {})


def test_package_import_loads_no_submodule():
    src = os.path.dirname(os.path.dirname(os.path.abspath(weylwalk.__file__)))
    probe = "import sys, weylwalk; print(*sorted(m for m in sys.modules if 'weylwalk' in m))"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), check=True)
    assert done.stdout.split() == ["weylwalk"]


# --- value classes ---------------------------------------------------------------------


@pytest.fixture()
def frozen_values(c2, c2_algebra, tau_half, b_pi1):
    """One instance of every immutable value class."""
    dist = M.build_distribution(c2_algebra, c2.weight((1, 0)), tau_half)
    table = M.restricted_table(dist, [c2.zero_weight()], strict=False)
    return [
        c2.realization, c2.zero_weight(), c2_algebra.group[0], c2,
        tau_half, ModuleSpec(((c2.weight((1, 0)), 2),)), TensorNode(((b_pi1, 0),)),
        dist.entries[0], table, b_pi1.nodes[0],
    ]


def test_frozen_classes_refuse_assignment(frozen_values):
    assert len({type(v) for v in frozen_values}) == 10
    for value in frozen_values:
        slot = type(value).__slots__[0]
        before = getattr(value, slot)
        with pytest.raises(AttributeError):
            setattr(value, slot, None)
        with pytest.raises(AttributeError):
            delattr(value, slot)
        with pytest.raises(AttributeError):
            value.extra = 1
        assert getattr(value, slot) is before
        # copy and pickle restore the slots without going through assignment
        assert copy.copy(value) == value
        for twin in (copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(twin) is type(value)
            # a crystal graph compares by identity, so its copy is a new graph
            assert (twin == value) != isinstance(value, (M.DistEntry, TensorNode))


def test_weight_compares_and_hashes_by_fw_only(c2):
    w = c2.weight((1, 2))
    other = cartan.Weight((1, 2), (0, 0), 7)
    assert w == other and hash(w) == hash(other) == hash((1, 2))
    assert w != c2.weight((2, 1)) and w != (1, 2)


def test_weyl_element_compares_and_hashes_by_rho_image(c2_algebra):
    """Elements of two separately built trees of one type are equal where
    they stand for the same w."""
    group = c2_algebra.group
    again = cartan.weyl_group(cartan.build_cartan_datum("C2"))
    assert again is not group
    for w, twin in zip(group, again):
        assert w == twin and hash(w) == hash(twin)
    assert len(set(group) | set(again)) == len(group) == 8
    assert group[3] != again[4]


def test_paths_and_tensor_nodes_compare_by_value(c2, b_pi1):
    a = P.straight_path((F(1), F(0)))
    b = P.canonical_path([F(0), F(1, 2), F(1)], [(F(0),) * 2, (F(1, 2), F(0)), (F(1), F(0))])
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != P.straight_path((F(0), F(1)))
    # a path is its points: equal points give an equal path and an equal hash
    for path in b_pi1.nodes:
        twin = P.PiecewisePath(tuple(path.points))
        assert twin is not path and twin == path and hash(twin) == hash(path)
    node = TensorNode(((b_pi1, 0), (b_pi1, 1)))
    twin = TensorNode(tuple([(b_pi1, 0), (b_pi1, 1)]))
    assert node == twin and hash(node) == hash(twin)
    assert node != TensorNode(((b_pi1, 0), (b_pi1, 2))) and node != TensorNode(node.factors[:1])


def test_value_classes_keep_defaults_and_value_equality(c2, tau_half):
    assert cartan.build_cartan_datum([[2, -1], [-2, 2]]).label == "custom"
    again = cartan.build_cartan_datum("C2")
    assert c2 == again and hash(c2) == hash(again)
    point = TauPoint((F(1, 2), F(1, 2)), 2)
    assert point.roots is None and point == tau_half and hash(point) == hash(tau_half)
    assert point != tau_point(c2, [F(1, 2), F(1, 3)])
    table = M.TransitionTable((c2.zero_weight(),), ((F(1, 2),),), "substochastic")
    assert table.row_complete == (True,)


def test_report_classes_are_mutable_records():
    first = MC.EstimatorReport("x", 0.5, 10, 0.1)
    second = MC.EstimatorReport("x", 0.5, 10, 0.1)
    assert (first.target, first.z, first.slack, first.notes) == (None, None, 0.0, {})
    assert first == second and first.notes is not second.notes
    first.notes["k"] = 1
    assert first != second
    second.notes["k"] = 1
    second.z = 2.0
    assert first != second
    with pytest.raises(TypeError):
        hash(first)
    assert copy.deepcopy(first) == first == pickle.loads(pickle.dumps(first))
    cont, disc = [1, 0], [0, 2]
    summary = MC.ExitSummary(3, 2, cont, disc, 0)
    assert (summary.continuous_exit, summary.discrete_exit) == ([1, None], [None, 2])
    assert summary == MC.ExitSummary(3, 2, cont, disc, 0)
    assert summary != MC.ExitSummary(3, 2, cont, disc, 1)
    assert summary.stay_count_continuous(1) == 1 and summary.stay_count_discrete(3) == 1


# the classes whose slots Record.__init__ fills from positional values alone
PLAIN_RECORDS = [cartan.Realization, cartan.Weight, cartan.WeylElement, cartan.CartanDatum,
                 M.DistEntry, P.PiecewisePath, MC.SandwichReport, MC.RatioReport]


@pytest.mark.parametrize("cls", PLAIN_RECORDS, ids=lambda cls: cls.__name__)
def test_record_constructor_takes_one_value_per_slot(cls):
    n = len(cls.__slots__)
    value = cls(*range(n))
    assert [getattr(value, name) for name in cls.__slots__] == list(range(n))
    with pytest.raises(TypeError):
        cls(*range(n - 1))
    with pytest.raises(TypeError):
        cls(*range(n + 1))


def _records(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _records(sub)


def test_only_validating_or_deriving_classes_write_init():
    assert set(PLAIN_RECORDS) <= set(_records(cartan.Record))
    own_init = {c.__name__ for c in _records(cartan.Record)
                if c.__module__.startswith("weylwalk.") and "__init__" in vars(c)}
    assert own_init == {"TauPoint", "ModuleSpec", "TensorNode", "TransitionTable",
                        "EstimatorReport", "ExitSummary"}


def test_canonical_path_is_stored_as_its_points():
    assert P.PiecewisePath.__slots__ == ("points",)
    path = P.canonical_path([0, F(1, 5), F(1, 2), 1],
                            [(0, 0), (F(1, 2), 0), (F(1, 2), 1), (0, 2)])
    assert path.points == ((0, 0), (F(1, 2), 0), (F(1, 2), 1), (0, 2))
    assert path.times == (0, F(1, 3), F(2, 3), 1)
    assert P.straight_path((0, 0)).times == (0, 1)
    # value_at interpolates on the uniform breakpoints, whatever the input times
    expected = {0: (0, 0), F(1, 6): (F(1, 4), 0), F(1, 3): (F(1, 2), 0),
                F(1, 2): (F(1, 2), F(1, 2)), F(5, 6): (F(1, 4), F(3, 2)), 1: (0, 2)}
    assert {t: value_at(path, t) for t in expected} == expected
