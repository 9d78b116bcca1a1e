"""Finite topological spaces, their calculus, and exact-sequence bookkeeping.

Each public name, and each module, is imported on first use (PEP 562), so
importing the package loads none of its modules and a command loads only
the ones it runs.
"""

from importlib import import_module

# the home module of each public name
_EXPORTS = {
    "action": ("ActionOverX", "filtration_of_action", "is_tight",
               "minimal_ideals", "pushforward", "reconstruct", "restrict",
               "subquotient_support"),
    "completion": ("CompletionSpace", "build_yprime", "from_discontinuous",
                   "neighborhood_filter_embedding", "to_discontinuous"),
    "enumeration": ("are_homeomorphic", "canonical_form", "census",
                    "connected_catalog", "enumerate_labeled_t0",
                    "enumerate_labeled_topologies", "space_from_canonical"),
    "errors": ("FinitetopError", "InputFormatError"),
    "intmat": ("IntMatrix", "kernel_basis", "smith_normal_form", "solve"),
    "ktheory": ("FGAbelianGroup", "FiltratedKDatum", "GradedGroup",
                "GroupHom", "SixTermCycle", "cokernel", "image",
                "is_exact_at", "kernel", "two_point_sequence",
                "vanishing_propagation", "verify_datum", "verify_six_term"),
    "lattice": ("LatticeMap", "continuous_to_lattice_map",
                "lattice_map_to_continuous", "preserves_finite_meets",
                "preserves_joins"),
    "spaces": ("ContinuousMap", "Filtration", "FiniteSpace",
               "alexandrov_topology", "hasse_dot", "space_from_edges"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_MODULES = frozenset(_EXPORTS) | {"ajsonio", "cli", "jsonio", "kjsonio"}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _MODULES:
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    home = import_module(f"{__name__}.{_HOME[name]}")
    value = globals()[name] = getattr(home, name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | _MODULES)
