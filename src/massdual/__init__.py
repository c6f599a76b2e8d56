"""Exact total masses of local Galois representations, stringy point
counts from resolution data, and symbolic strong/weak duality verdicts.

Everything is exact: coefficients are fractions, q stays symbolic, and
equality of the per-residue-class rational functions is decidable.

A submodule is imported when one of its public names is first read (PEP 562),
so `import massdual` loads none of them and a caller pays only for what it uses.
"""

from importlib import import_module

# each public name and the submodule that defines it, one line per submodule
_HOME = {name: module for module, names in {
    "duality": "DualityReport duality_report",
    "errors": "DivergentSeries GroupTooLarge InconsistentRepresentation InfiniteInput InfiniteMass InvalidParams MalformedStrata MassdualError NonRealInput NotTame PoleAtEvaluationPoint ZeroDenominatorExponent",
    "grouprep": "FiniteGroup MonomialMatrix MonomialRep TameWeights direct_sum from_cayley_table group_closure group_from_json group_to_json perm_from_cycles permutation_matrix permutation_rep rep_direct_sum",
    "massengine": "GeometricFamily HilbertCounts MassPair ProfileStratum RamificationProfile TameScenario bhargava_masses builtin_profile hilbert_counts kedlaya_masses partition_count profile_from_json profile_to_json profile_total_masses tame_involution_check tame_total_masses",
    "qsym": "ClassFunction Infinite LaurentPoly Q cf_admissible_witness cf_dual cf_eval cf_from_terms cf_geometric_sum cf_ring is_infinite",
    "stringy": "ResolutionData VerticalRow builtin_resolution convert_strata_map gm_duality_check gm_quotient mckay_identity_check open_closed_convert poincare_check resolution_from_json resolution_to_json stringy_count",
    "verify": "CheckResult run_suite tame_catalog",
}.items() for name in names.split()}

__all__ = list(_HOME)


def __getattr__(name: str):
    """The public name from its home module, kept here so that this runs once per name."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__() -> list:
    return sorted({*globals(), *_HOME})
