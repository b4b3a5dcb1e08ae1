"""Exact computation in partial metric spaces.

Spaces carry rational distance tables or exact formula evaluators; every
verdict (axioms, convergence certificates, condition checks, fixed-point
traces) is computed in exact arithmetic. The axiom verdict comes from one
pure-Python scan over integer numerators (``kernels``); the derived
metrics of a table that passes it are metrics by Matthews' lemma, stated
in ``properties``, so no entry point scans them.

The package namespace is lazy: ``import partialmetric`` loads no
submodule. A public name, or a submodule, is imported on first use
(PEP 562), and a submodule's public names are bound here as soon as it
is loaded, by whichever import loads it. From then on each name is an
ordinary attribute of the package, bound to the object its module
defines, as an eager ``from .module import name`` would bind it. So
``pm`` (the CLI) pays only for the modules its command reads.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

# Submodule -> the public names the package takes from it.
_EXPORTS = {
    "analysis": (
        "DEFAULT_HORIZON", "DEFAULT_TOL", "CauchyReport", "Certificate", "ConvergenceReport",
        "GDeltaReport", "SequenceSpec", "SpecializationOrder", "ball_cover_check",
        "converges_to", "gdelta_diagonal", "is_cauchy", "limit_set", "maximal_points",
        "properly_converges", "seq_compact_witness", "specialization_order",
        "totally_bounded_at",
    ),
    "catalog": (
        "CatalogEntry", "CatalogSpace", "MapSpec", "apex_space", "catalog_map",
        "catalog_names", "catalog_sequence", "catalog_space", "get_entry", "random_pm_space",
        "validate_entry",
    ),
    "cli": (),
    "core": (
        "AxiomReport", "BottomDecl", "FinitePMSpace", "SeparationClass", "ball", "bottom_set",
        "check_axioms", "d_metric", "diameter", "minimal_balls", "p_bar", "p_m", "rho_of",
        "separation_class",
    ),
    "errors": (
        "AxiomFailureError", "CatalogKeyError", "DomainError", "MapClosureError",
        "MetadataError", "PMError", "SizeLimitError", "StructureError",
        "UnsupportedSequenceError",
    ),
    "facts": ("FactSuiteResult", "run_fact_suite"),
    "fixedpoint": (
        "ConditionReport", "IterationTrace", "check_condition_max", "check_condition_min",
        "check_contraction", "constant_map_bottom", "constant_map_ruled_out",
        "exhaustive_condition_maps", "iterate", "least_factor", "solve_on_bottom",
    ),
    "kernels": (),
    "points": ("FSet", "Point", "format_point", "format_rational", "parse_rational"),
    "properties": ("check_space_properties", "property_run"),
}

# Public name -> the submodule that defines it.
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


class _Package(types.ModuleType):
    """The package module; binding a loaded submodule here binds its public names too.

    The import system binds each submodule on its package once the
    submodule has run, whichever module imported it. Binding the public
    names at that moment, and not at their first read, means every name
    of a loaded module is already in the namespace when code (a tracer,
    ``monkeypatch``) looks for the places that bind a function.
    """

    def __setattr__(self, name, value):
        super().__setattr__(name, value)
        if isinstance(value, types.ModuleType) and value.__name__ == f"{__name__}.{name}":
            for public in _EXPORTS.get(name, ()):
                super().__setattr__(public, getattr(value, public))


def __getattr__(name):
    """Import the submodule ``name``, or the one that defines ``name``, and return it."""
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))


sys.modules[__name__].__class__ = _Package
