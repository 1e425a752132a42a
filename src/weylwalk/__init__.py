"""Exact Littelmann-path machinery for conditioned random walks in Weyl chambers."""

from .cartan import (
    CartanDatum,
    Weight,
    WeylElement,
    WeylGroup,
    act,
    build_cartan_datum,
    chamber_position,
    positive_roots,
    weyl_group,
)
from .charalg import CharacterAlgebra, ExponentPolynomial, TauPoint, tau_point
from .crystal import (
    CrystalCache,
    CrystalGraph,
    ModuleSpec,
    TensorNode,
    count_f_multiplicity,
    count_multiplicity,
    generate_crystal,
    tensor_apply_e,
    tensor_apply_f,
    tensor_eps_phi,
)
from .markov import (
    CrystalDistribution,
    TransitionTable,
    build_distribution,
    conditioned_transition,
    doob_transform,
    hchain_matrix,
    pitman,
    restricted_table,
    state_closure,
    twisted_tau,
)
from .paths import (
    PiecewisePath,
    apply_e,
    apply_f,
    canonical_path,
    concat,
    dual,
    eps_phi,
    height_function_extrema,
    path_weight,
    straight_path,
)

__version__ = "0.1.0"
