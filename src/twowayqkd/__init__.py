"""Security analysis of two-way Gaussian coherent-state QKD.

The package computes asymptotic secret-key rates, Holevo bounds and security
thresholds for the two-way coherent-state protocol with direct
reconciliation, attacked by two-mode coherent (possibly correlated) Gaussian
ancillas, and compares them with a one-way baseline.  It is built on a small
covariance-matrix toolbox (symplectic spectra, Gaussian entropies,
measurement conditioning) that is usable on its own.
"""

import importlib

#: public names (`__all__`) by the submodule that defines them; `__getattr__`
#: imports a submodule on first use of one of its names, so `import twowayqkd`
#: loads no submodule and no numpy
_EXPORTS = {
    "attacks": ("ATTACK_CLASSES", "COLLECTIVE", "EPR_NEG", "EPR_POS", "SEP_ANTI_NEG",
                "SEP_ANTI_POS", "SEP_SYM_NEG", "SEP_SYM_POS", "AttackParams",
                "attack_from_class", "classify", "eve_cm", "is_physical", "normalize_class",
                "physical_region_grid", "require_physical"),
    "circuit": ("ProtocolParams", "bob_cm", "conditional_cm", "total_cm", "total_cm_circuit"),
    "errors": ("DegenerateSpectrumError", "UnphysicalAttackError", "UnphysicalStateError"),
    "gaussian": ("apply_symplectic", "beam_splitter", "entropic_h", "epr_cm",
                 "heterodyne_condition", "is_bona_fide", "is_symplectic", "partial_trace",
                 "ppt_separable", "symplectic_form", "symplectic_spectrum", "tensor",
                 "thermal_cm", "vacuum_cm", "von_neumann_entropy"),
    "protocol": ("KeyRateReport", "keyrate_asymptotic", "keyrate_report"),
    "security": ("ScanResult", "ThresholdCurve", "class_variations", "excess_noise",
                 "oneway_keyrate", "oneway_report", "optimal_attack_scan", "scan_grid",
                 "threshold_curves"),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = list(_ORIGIN)


def __getattr__(name):
    module = _ORIGIN.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
