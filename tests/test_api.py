"""The public names of the package are part of its behaviour contract."""

import stieltjes

PUBLIC = [
    "AmbientDensity", "BOUNDARY_POINT", "BuoyancyJumpRow", "CONDITIONING_TOL",
    "CONSTANCY_POINT", "CONSTANT", "CaratheodoryBound", "ChainRuleReport",
    "ConstantProfile", "ConvergenceError", "DegenerateCoefficientError", "Derivator",
    "DomainError", "FALLING_POINT", "FtcReport", "GExponential", "HahnRow",
    "HorizonSelectionError", "Integrand", "JUMP_POINT", "Jump", "JumpAuditRow",
    "JumpFactor", "LinearCoefficient", "LinearProfile", "LinearSolutionReport",
    "NEGATIVE", "NEGATIVE_PART", "NONDECREASING", "NONINCREASING", "POSITIVE",
    "POSITIVE_FACTORS", "POSITIVE_PART", "RISING_POINT", "PlumeAudit", "PlumeParams",
    "PowerProfile", "QuadratureError", "RhsEvaluationError", "SIGNED", "SIGN_CHANGING",
    "Segment", "SolutionReport", "SolveConfig", "SpecValidationError", "StieltjesError",
    "StieltjesMeasure", "StructuralSets", "SystemSpec", "TOTAL", "TOTAL_VARIATION",
    "TabulatedProfile", "Trajectory", "UndefinedPointError", "VANISHING",
    "ZERO_FACTOR_TOL", "build_plume_system", "chain_rule_check", "derivative_estimates",
    "flux_to_geometry", "ftc_roundtrip", "g_continuity_modulus", "g_derivative",
    "g_derivative_fn", "g_exponential", "hahn_check", "integrate", "load_json",
    "measure_of_interval", "measure_of_point", "parse_derivator", "parse_integrand",
    "parse_system", "primitive", "run_plume", "select_horizon", "serialize_derivator",
    "solve", "solve_euler", "solve_picard", "system_grid", "transform_coefficient",
    "uniform_grid", "verify_linear_solution",
]


def test_public_names_are_pinned():
    assert stieltjes.__all__ == PUBLIC


def test_every_public_name_resolves():
    for name in stieltjes.__all__:
        assert getattr(stieltjes, name) is not None
