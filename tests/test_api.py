"""The public surface: ``asymlp.__all__`` and the objects it names."""
import importlib

import asymlp

MODULES = ("grid", "quadrature", "norms", "operators", "families", "criteria", "nets", "bounded", "io")

# the public names in order; changing this list changes the public API
PUBLIC = [
    "__version__", "GridError", "IncompatibleGridsError", "NotInSpaceError",
    "FractionLike", "as_fraction", "fraction_gcd", "TailSpec", "ZERO_TAIL",
    "GridFunction", "grid_function", "constant", "sample", "indicator", "add",
    "subtract", "MeasurableSet", "power_tail_integral",
    "clamped_power_tail_integral", "AbsPower", "ClampPower", "Threshold",
    "Outside", "Window", "integrate_transformed", "difference_integral",
    "translation_defect", "translation_defect_bounds", "translation_profile",
    "superlevel_measure", "superlevel_set", "NormParams", "ConvergenceReport",
    "lp_norm", "alpha_norm", "lp_distance", "alpha_distance",
    "alpha_converges", "MisalignedShiftError", "translate", "truncate",
    "clamp_unit", "scale", "FamilySpec", "default_phi", "family_f", "family_g",
    "rademacher", "family_u", "family_v", "v_limit_distance", "f_family",
    "g_family", "h_family", "u_family", "v_family", "lipschitz_family",
    "spike_family", "FAMILY_BUILDERS", "parse_family", "ShiftLattice",
    "ConditionOutcome", "ConditionReport", "check_tail", "check_translation",
    "check_level", "check_kr_lp", "full_report", "EpsNet", "CoveringCheck",
    "LevelConditionError", "pairwise_distances", "greedy_net",
    "verify_covering", "covering_profile", "truncation_lift_net",
    "ExceptionalSet", "BoundednessCertificate", "EquicontinuityCertificate",
    "CorollaryRow", "CorollaryReport", "convergence_in_measure",
    "almost_equibounded_certificate", "almost_equicontinuity_certificate",
    "corollary_crosscheck", "symmetric_difference_decay", "function_to_dict",
    "function_from_dict", "family_to_dict", "family_from_dict",
    "report_to_dict", "net_to_dict", "save_json", "load_json", "load_function",
    "load_family",
]


def test_public_names_bind_their_modules_objects():
    assert asymlp.__all__ == PUBLIC
    assert asymlp.__version__ == "0.1.0"
    owners = {}
    for mod in MODULES:
        module = importlib.import_module(f"asymlp.{mod}")
        for name in module.__all__:
            owners.setdefault(name, []).append(module)
    # each public name is listed by exactly one module, and the package
    # binds that module's object
    assert sorted(owners) == sorted(PUBLIC[1:])
    for name, (module, *others) in owners.items():
        assert not others, name
        assert getattr(asymlp, name) is getattr(module, name), name
    namespace = {}
    exec("from asymlp import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(PUBLIC)
