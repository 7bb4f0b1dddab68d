"""The names ``excov`` exports: a deletion or rename of one shows up here."""

import excov

PUBLIC = [
    "CapExceededError",
    "EllipticCurveQ",
    "ExcovError",
    "FieldCtx",
    "FieldElem",
    "FrobeniusSet",
    "InternalInvariantError",
    "MonodromyData",
    "NielsenTuple",
    "P1Point",
    "Perm",
    "PermGroup",
    "Poly",
    "RationalMap",
    "ScanReport",
    "ValidationError",
    "__version__",
    "affine_conjugate",
    "analyze_rep",
    "braid_orbit",
    "chebyshev",
    "chebyshev_twist",
    "component_count",
    "compose",
    "coset_exceptionality",
    "cyclic",
    "cyclic_branch_pair",
    "cyclic_cover_model",
    "dickson",
    "dickson_branch_triple",
    "dickson_cover_model",
    "dickson_tower_cycles",
    "dp_range_test",
    "exceptionality_scan",
    "fiber_tensor",
    "fit_from_samples",
    "from_residues",
    "idp_multiset_test",
    "intersect",
    "kf_cross_check",
    "lattes_map",
    "make_extension",
    "make_field",
    "median_value_check",
    "modular_nielsen",
    "ogg_curve",
    "oit_predict",
    "oit_scan",
    "parse_map_spec",
    "pencil_scan",
    "period_series",
    "redei",
    "reduce_curve",
    "rh_genus",
    "stable_component_count",
    "union",
]


def test_all_lists_the_recorded_names():
    assert sorted(excov.__all__) == PUBLIC


def test_every_exported_name_resolves():
    missing = [name for name in excov.__all__ if not hasattr(excov, name)]
    assert missing == []
