"""Every public name is reached, an oracle, or plumbing.

``EXPORTS`` classes each name in a module's ``__all__``:

* ``reached``: a CLI command, an acceptance criterion or a bench op runs
  it, directly or through the code of another reached name;
* ``oracle``: an independent slow path kept to check the fast path it
  names (``module.name``);
* ``plumbing``: a type, error, serializer or helper that carries data
  between the reached names.

A new export has to be classed here, and an export with no caller is
deleted rather than listed.
"""

import importlib
import inspect

import carlesonlab

MODULES = ("bumps", "oscillatory", "arithmetic", "multiplier", "lambda_sets",
           "operators")

EXPORTS = {
    # bumps
    "smooth_step": ("reached", "eta, chi and phi_hat are built on it"),
    "eta": ("reached", "rho is eta(t) - eta(2t)"),
    "rho": ("reached", "psi's dyadic partition element"),
    "psi": ("reached", "the psi-hat table and psi_k"),
    "psi_k": ("reached", "m_j weights and h_row samples"),
    "chi": ("reached", "chi_s"),
    "chi_s": ("reached", "L_j cutoffs: multiplier-sample, approx-error"),
    "phi_hat": ("reached", "growth-report multipliers: bourgain-growth, "
                           "oscillatory-growth"),
    # oscillatory
    "ConvergenceError": ("plumbing", "non-convergence exits 3"),
    "h_j": ("reached", "multiplier-sample and decay_report: criteria "
                       "04/05, bench decay"),
    "h_scaled": ("oracle", "oscillatory.h_row"),
    "h_row": ("reached", "single-l, oscillatory-growth: criterion 10"),
    "psi_hat": ("reached", "h_j's X = 0 path and dual path; bench setup"),
    # arithmetic
    "ReducedRational": ("plumbing", "the shell rationals A/Q, B/Q"),
    "MajorBox": ("oracle", "multiplier._grid_point_in_major_boxes"),
    "enumerate_shell": ("reached", "shell command; L_j's shells"),
    "shell_size": ("oracle", "arithmetic.enumerate_shell"),
    "gauss_sum": ("oracle", "arithmetic.gauss_rows"),
    "gauss_row": ("plumbing", "no code in src calls it; bench/tracer.py's "
                              "TRACED wraps it by name for the "
                              "arithmetic.gauss_row.* metrics and "
                              "bench/test_tracer.py calls it"),
    "gauss_rows": ("reached", "gauss command, gauss_decay_scan and "
                              "odd_q_modulus_deviation: criteria 01/02, "
                              "bench arith"),
    "square_class_reps": ("reached", "gauss_decay_scan: criterion 02"),
    "gauss_decay_scan": ("reached", "criterion 02, bench arith"),
    "odd_q_modulus_deviation": ("reached", "gauss command, criterion 01, "
                                           "bench arith"),
    "find_box_overlaps": ("reached", "criterion 06, bench arith"),
    "torus_dist": ("plumbing", "|torus_delta|, for the MajorBox oracle"),
    "torus_delta": ("reached", "decay_report boxes, bourgain-growth"),
    # multiplier
    "GridSpec": ("plumbing", "decay_report's sampling plan"),
    "m_j": ("reached", "multiplier-sample, decay_report"),
    "m_j_grid": ("reached", "decay_report's grid stage"),
    "m_j_rational_oracle": ("oracle", "multiplier.m_j"),
    "l_js": ("plumbing", "the shell-s term of L_j at one point; "
                         "multiplier-sample and decay_report sum the same "
                         "term over shells enumerated once"),
    "big_l_j": ("plumbing", "L_j at one point, as multiplier-sample's E_j "
                            "sums it; bench/tracer.py's TRACED wraps it by "
                            "name for the multiplier.big_l_j.* metrics"),
    "decay_report": ("reached", "approx-error, criteria 04/05, bench decay"),
    "frac_part_exact": ("reached", "m_j's exact phase reduction"),
    # lambda_sets
    "LambdaSet": ("plumbing", "modulation sets of cantor, cover, maximal"),
    "Interval": ("plumbing", "a certificate's covering interval"),
    "CoveringCertificate": ("plumbing", "cover's result"),
    "CoverError": ("plumbing", "an uncoverable set exits 2"),
    "cantor_set": ("reached", "cantor, cover, maximal, norm-probe; "
                              "criteria 07/08"),
    "cover": ("reached", "cover command, criterion 07"),
    "verify_certificate": ("oracle", "lambda_sets.cover"),
    "lambda_set_to_json": ("plumbing", "cantor's artifact"),
    "lambda_set_from_json": ("plumbing", "--input of cover, maximal, "
                                         "norm-probe"),
    "certificate_to_json": ("plumbing", "cover's artifact"),
    # operators
    "Signal": ("plumbing", "maximal's input and output"),
    "kernel_taps": ("reached", "apply_kernel, carleson_max, norm_probe"),
    "apply_kernel": ("reached", "criterion 03"),
    "apply_kernel_brute": ("oracle", "operators.apply_kernel"),
    "carleson_max": ("reached", "maximal command"),
    "norm_probe": ("reached", "norm-probe command, criterion 08"),
    "bourgain_growth_report": ("reached", "bourgain-growth, criterion 09"),
    "oscillatory_growth_report": ("reached", "oscillatory-growth"),
    "single_l_report": ("reached", "single-l, criterion 10"),
    "signal_to_json": ("plumbing", "maximal's .signal.json artifact"),
}


def _all_names() -> set:
    """Every name in a module's __all__; no name is in two."""
    names = [name for modname in MODULES
             for name in importlib.import_module(f"carlesonlab.{modname}").__all__]
    assert len(names) == len(set(names))
    return set(names)


def test_table_classes_exactly_the_exports():
    assert set(EXPORTS) == set(_all_names())


def test_every_class_is_known_and_every_oracle_names_a_fast_path():
    for name, (kind, detail) in EXPORTS.items():
        assert kind in ("reached", "oracle", "plumbing"), name
        if kind == "oracle":
            modname, fast = detail.split(".")
            assert callable(getattr(
                importlib.import_module(f"carlesonlab.{modname}"), fast)), name
            # a private fast path is not in the table
            assert EXPORTS.get(fast, ("reached",))[0] == "reached", name


def test_package_exports_only_module_exports():
    exported = {name for name, obj in vars(carlesonlab).items()
                if not name.startswith("_") and not inspect.ismodule(obj)}
    assert exported <= set(_all_names())
