"""Exact-arithmetic toolkit for minimal balanced collections, TU-game core
tests, and uniform/regular hypergraph combinatorics.

Coalitions are plain ints: bit i-1 set means player i belongs. A game's
worths and a collection's weights are each integer numerators over one
denominator; no floating point enters any decision.
"""

__version__ = "0.1.0"

from .core import (
    binomial,
    multiset_coefficient,
    coalitions_of,
    parse_coalition,
    format_coalition,
)
from .hypergraph import Hypergraph
from .balanced import (
    BalancedCollection,
    find_balancing_weights,
    is_balanced,
    is_minimal_balanced,
)
from .enumeration import MbcCatalog, enumerate_mbc, mbc_via_duality, k_max
from .games import Game, CoreVerdict, core_lp, core_mbc, random_game
from .decomposition import UniformPartition, IncompleteDecomposition, decompose, decompose_all
