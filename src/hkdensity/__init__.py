"""Exact Hilbert-Kunz density functions for graded rings.

Two independent computational paths:

* closed form from a graded Betti table (`resolution`), and
* degree-wise Frobenius colength counting on affine semigroup rings
  (`lattice`),

with combinators for Segre products and Veronese rescaling
(`combinators`), a verified catalog of the ADE invariant rings
(`catalog`), and a dimension-2 closed form driven by
Harder-Narasimhan data (`hn`).  All arithmetic is exact: the kernels
work on integers (numerators over one denominator), and results are
`fractions.Fraction` values.
"""

from __future__ import annotations

from .errors import (
    CapacityError,
    DomainError,
    HKDError,
    InputError,
    InternalError,
    ValidationError,
)
from .exact import (
    PiecewisePoly,
    Polynomial,
    pw_integrate,
    pw_sup_distance,
    rat,
    rat_str,
)
from .resolution import (
    BettiTable,
    closed_form_density,
    colength_by_degree,
    ehk_closed_form,
    koszul_betti,
    validate_betti,
)
from .rings import (
    CompleteIntersectionRing,
    VeroneseRing,
    leading_coefficient,
    parse_ring_json,
)
from .lattice import (
    LatticePair,
    MonomialIdealSpec,
    SemigroupSpec,
)
from .combinators import (
    DensityPair,
    rescale_density,
    segre,
)
from .hn import HNData, dim2_pair_density, hn_density
from .catalog import (
    AdeEntry,
    catalog_density,
    catalog_entry,
    catalog_lattice_crosscheck,
    catalog_minor_check,
)

__version__ = "0.1.0"

__all__ = [
    "AdeEntry",
    "BettiTable",
    "CapacityError",
    "CompleteIntersectionRing",
    "DensityPair",
    "DomainError",
    "HKDError",
    "HNData",
    "InputError",
    "InternalError",
    "LatticePair",
    "MonomialIdealSpec",
    "PiecewisePoly",
    "Polynomial",
    "SemigroupSpec",
    "ValidationError",
    "VeroneseRing",
    "catalog_density",
    "catalog_entry",
    "catalog_lattice_crosscheck",
    "catalog_minor_check",
    "closed_form_density",
    "colength_by_degree",
    "dim2_pair_density",
    "ehk_closed_form",
    "hn_density",
    "koszul_betti",
    "leading_coefficient",
    "parse_ring_json",
    "pw_integrate",
    "pw_sup_distance",
    "rat",
    "rat_str",
    "rescale_density",
    "segre",
    "validate_betti",
]
