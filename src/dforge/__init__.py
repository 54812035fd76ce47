"""dforge: exact computations with Drinfeld modules over F_q[T],
their Weil pairing, stable reduction over local fields, the
Tate-Drinfeld degeneration and the cusps of the modular curve.

All arithmetic is exact (finite fields, polynomial rings, truncated
Laurent series with tracked precision); there is no floating point
anywhere.  Values are immutable and every operation is a pure function.
"""

__version__ = "0.1.0"

from .fields import field_make, PrimeField, ExtField
from .poly import (PolyRing, ResidueRing, LocalizedRing, FunctionField,
                   residue_units, char_eval, NEG_INF)
from .series import Series, LaurentDomain, PrecisionError
from .skew import SkewPoly, skew_mul, skew_right_divmod, skew_eval, \
    skew_kernel, skew_solve
from .drinfeld import (DrinfeldModule, LevelStructure, dm_make, dm_image,
                       dm_twist, dm_torsion, level_make, carlitz_module,
                       carlitz_cyclotomic, CyclotomicRing, UniversalRank1,
                       rank1_universal, CharacteristicError, RankError)
from .weil import (exterior_power2, motive_oracle, moore_pair,
                   PairingContext, weil_pair, weil_map)
from .cusps import (gl2_enum, subgroups, coset_reps, census, MatrixRing,
                    double_cosets, unit_count, gl2_order)
from .tate import (TateLattice, tate_lattice, lattice_exp, tate_module,
                   tate_level, j_expansion, h_sigma, h_sigma_verify,
                   h_sigma_obstruction, NotInN, universal_assembly,
                   specialize, find_specialization_point)
from .reduction import (newton_slopes, stable_normalize, drinfeld_approx,
                        tau_series_invert, additive_roots, lattice_recover,
                        triple_extract, NonIntegralSlope, NoLattice)
