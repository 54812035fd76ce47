"""dforge: exact computations with Drinfeld modules over F_q[T],
their Weil pairing, stable reduction over local fields, the
Tate-Drinfeld degeneration and the cusps of the modular curve.

All arithmetic is exact (finite fields, polynomial rings, truncated
Laurent series with tracked precision); there is no floating point
anywhere.  Values are immutable and every operation is a pure function.

The public names below are imported from their submodule on first
access (PEP 562), so `import dforge.cli` loads no arithmetic module
that the command it runs does not use.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it provides
_EXPORTS = {
    "fields": ("field_make", "PrimeField", "ExtField"),
    "poly": ("PolyRing", "ResidueRing", "LocalizedRing", "FunctionField",
             "NEG_INF"),
    "series": ("Series", "LaurentDomain", "PrecisionError"),
    "skew": ("SkewPoly", "skew_kernel", "skew_solve"),
    "drinfeld": ("DrinfeldModule", "LevelStructure", "dm_torsion",
                 "carlitz_module", "carlitz_cyclotomic", "CyclotomicRing",
                 "UniversalRank1", "rank1_universal", "CharacteristicError",
                 "RankError"),
    "weil": ("exterior_power2", "motive_oracle", "moore_pair",
             "PairingContext", "weil_map"),
    "cusps": ("gl2_enum", "subgroups", "coset_reps", "census", "MatrixRing",
              "double_cosets", "unit_count", "gl2_order"),
    "tate": ("TateLattice", "tate_lattice", "lattice_exp", "tate_module",
             "j_expansion", "h_sigma", "h_sigma_verify",
             "h_sigma_obstruction", "NotInN", "universal_assembly",
             "specialize", "find_specialization_point"),
    "reduction": ("newton_slopes", "stable_normalize", "drinfeld_approx",
                  "tau_series_invert", "additive_roots", "lattice_recover",
                  "triple_extract", "NonIntegralSlope", "NoLattice"),
}

_SOURCE = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = list(_SOURCE)


def __getattr__(name):
    mod = _SOURCE.get(name)
    if mod is None:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    value = getattr(importlib.import_module("." + mod, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_SOURCE))
