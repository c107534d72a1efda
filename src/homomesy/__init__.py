"""Exact-arithmetic toolkit for detecting and verifying homomesy.

A statistic f on a finite invertible dynamical system (S, tau) is c-mesic
when its average over every tau-orbit equals the same constant c. This
package provides the poset and word combinatorics where the phenomenon
shows up (rowmotion and promotion on products of two chains, rotation on
words, Suter's action, sandpiles, tableau promotion, the Lyness map) and a
generic engine that partitions orbits, averages statistics in exact
rational arithmetic, and extracts homomesic subspaces.
"""

from .guards import DEFAULT_ENUMERATION_GUARD, DEFAULT_ORBIT_GUARD, GuardExceeded
from .posets import FinitePoset, GridPoset
from .dynamics import (
    antichain_from_st_word,
    ideal_from_sign_word,
    promotion_antichain,
    promotion_ideal,
    rowmotion_antichain,
    rowmotion_ideal,
    sign_word,
    stanley_thomas_word,
)
from .engine import (
    HomomesyReport,
    OrbitSummary,
    Statistic,
    check_homomesy,
    homomesic_subspace,
    in_reduced_span,
    iterate_orbit,
    orbit_average,
    orbit_partition,
    rational_nullspace,
    rational_solve,
    summarize_orbits,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_ENUMERATION_GUARD",
    "DEFAULT_ORBIT_GUARD",
    "FinitePoset",
    "GridPoset",
    "GuardExceeded",
    "HomomesyReport",
    "OrbitSummary",
    "Statistic",
    "antichain_from_st_word",
    "check_homomesy",
    "homomesic_subspace",
    "in_reduced_span",
    "ideal_from_sign_word",
    "iterate_orbit",
    "orbit_average",
    "orbit_partition",
    "promotion_antichain",
    "promotion_ideal",
    "rational_nullspace",
    "rational_solve",
    "rowmotion_antichain",
    "rowmotion_ideal",
    "sign_word",
    "stanley_thomas_word",
    "summarize_orbits",
]
