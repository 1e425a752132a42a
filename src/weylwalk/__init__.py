"""Exact Littelmann-path machinery for conditioned random walks in Weyl chambers.

The public names below load their submodule on first use, so importing the
package (or one submodule, such as ``weylwalk.cli``) loads no more than it
needs.
"""

_EXPORTS = {
    "cartan": ("CartanDatum", "Weight", "WeylElement", "act", "build_cartan_datum",
               "chamber_position", "positive_roots", "weyl_group"),
    "charalg": ("CharacterAlgebra", "ExponentPolynomial", "TauPoint", "tau_point"),
    "crystal": ("CrystalCache", "CrystalGraph", "ModuleSpec", "TensorNode",
                "count_f_multiplicity", "count_multiplicity", "tensor_apply_e",
                "tensor_apply_f", "tensor_eps_phi"),
    "markov": ("CrystalDistribution", "TransitionTable", "build_distribution",
               "doob_transform", "hchain_matrix", "pitman", "restricted_table",
               "state_closure", "twisted_tau"),
    "paths": ("PiecewisePath", "apply_e", "apply_f", "canonical_path", "concat", "dual",
              "eps_phi", "height_function_extrema", "path_weight", "straight_path"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
