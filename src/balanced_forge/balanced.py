"""Balanced collections of coalitions and their weight systems.

Balancedness of a collection B is decided exactly by the LP

    maximize t  subject to  sum(S in B, S containing i) lambda(S) = 1,
                            lambda(S) >= t,

solved in rational arithmetic: B is balanced iff the optimum t* is > 0,
and the returned weights are the optimal vertex (a max-min-weight
solution) reached by Bland's rule, so outputs are deterministic.
Minimality has a fast route (balanced + linearly independent incidence
vectors, hence unique weights) and a literal oracle (no proper
subcollection balanced) kept around to guard the equivalence.
"""
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import gcd
from operator import mul

from .core import (
    check_players,
    format_coalition,
    full_mask,
    parse_coalition,
    parse_weight,
    split_line,
    to_common_denominator,
)
from ._simplex import simplex_min, rank_of_masks

_balanced_cache = {}


def _checked_masks(n, coalitions):
    check_players(n)
    masks = sorted(map(int, coalitions))
    if not masks:
        raise ValueError("collection must be nonempty")
    if masks[0] == 0:
        raise ValueError("the empty coalition {} does not belong in a collection")
    full = full_mask(n)
    for s in masks:
        if s <= 0 or s > full:
            raise ValueError("coalition %r outside players 1..%d" % (s, n))
    for a, b in zip(masks, masks[1:]):
        if a == b:
            raise ValueError("duplicate coalition %s" % format_coalition(a))
    return tuple(masks)


def find_balancing_weights(n, coalitions):
    """Strictly positive exact weights for the collection, or None.

    None covers both failure modes: the per-player equations have no
    nonnegative solution at all, or every solution puts weight 0 on some
    coalition (optimum t* <= 0).
    """
    masks = _checked_masks(n, coalitions)
    cover = 0
    for s in masks:
        cover |= s
    if cover != full_mask(n):
        return None
    m = len(masks)
    # variables: mu_S per coalition, then t+ and t-; lambda = mu + t
    a_rows = []
    b_vec = []
    for i in range(n):
        d = sum(1 for s in masks if s >> i & 1)
        row = [1 if s >> i & 1 else 0 for s in masks]
        row.append(d)
        row.append(-d)
        a_rows.append(row)
        b_vec.append(1)
    cost = [0] * m + [-1, 1]
    res = simplex_min(a_rows, b_vec, cost)
    if res.status != "optimal":
        return None
    t = res.x[m] - res.x[m + 1]
    if t <= 0:
        return None
    return {s: res.x[j] + t for j, s in enumerate(masks)}


def is_balanced(n, coalitions):
    masks = _checked_masks(n, coalitions)
    key = (n, masks)
    hit = _balanced_cache.get(key)
    if hit is None:
        hit = find_balancing_weights(n, masks) is not None
        _balanced_cache[key] = hit
    return hit


def is_minimal_balanced(n, coalitions):
    """Balanced with linearly independent incidence vectors.

    Independence makes the weight system unique, which is equivalent to
    no proper subcollection being balanced; is_minimal_balanced_oracle
    checks that literal definition and the two are tested against each
    other exhaustively.
    """
    masks = _checked_masks(n, coalitions)
    if rank_of_masks(masks, n) != len(masks):
        return False
    return is_balanced(n, masks)


def is_minimal_balanced_oracle(n, coalitions):
    """Literal minimality: balanced and no proper subcollection balanced.

    Exponential in the collection size, so player counts above 5 are
    rejected. Subsets are scanned smallest-first so that non-minimal
    inputs exit on the first balanced subcollection found.
    """
    if n > 5:
        raise ValueError("oracle limited to n <= 5, got n=%d" % n)
    masks = _checked_masks(n, coalitions)
    if not is_balanced(n, masks):
        return False
    for size in range(1, len(masks)):
        for sub in combinations(masks, size):
            if is_balanced(n, sub):
                return False
    return True


class BalancedCollection:
    """A balanced collection as integers: the weight of coalitions[i] is
    numerators[i] / denominator, over the lcm of the reduced weight
    denominators, so equal weights give equal integers.

    Construction validates everything: distinct nonempty coalitions in
    canonical order, strictly positive weights, and the per-player sum
    identity. Equality and hashing cover the weights; catalogs
    deduplicate on .coalitions alone, which is enough for minimal
    collections since their weights are unique.
    """

    __slots__ = ("n", "coalitions", "numerators", "denominator", "_weights")

    def __init__(self, n, weights):
        """weights: a {coalition: weight} mapping or (coalition, weight) pairs;
        a coalition given twice raises ValueError."""
        pairs = list(weights.items() if hasattr(weights, "keys") else weights)
        masks = _checked_masks(n, [s for s, _ in pairs])
        by_mask = dict(pairs)
        # positivity and per-player sums of 1, checked on numerators over the lcm
        nums, den = to_common_denominator([by_mask[s] for s in masks])
        sums = [0] * n
        for s, num in zip(masks, nums):
            if num <= 0:
                raise ValueError(
                    "weight of %s must be positive, got %s"
                    % (format_coalition(s), Fraction(num, den))
                )
            i = 0
            while s:
                if s & 1:
                    sums[i] += num
                s >>= 1
                i += 1
        for i, total in enumerate(sums):
            if total != den:
                raise ValueError(
                    "player %d weight sum is %s, expected 1" % (i + 1, Fraction(total, den))
                )
        self.n = n
        self.coalitions = masks
        self.numerators = tuple(nums)
        self.denominator = den

    @classmethod
    def _trusted(cls, n, masks, nums, den):
        """Skip validation; the triple must be exact and in lowest terms.

        The kernels emit weights straight from exact elimination, so the
        per-player identity holds by construction; revalidating 200k+
        collections at n=6 would double the enumeration time. Tests
        re-validate full catalogs for n <= 5 and samples beyond.
        """
        self = object.__new__(cls)
        self.n = n
        self.coalitions = tuple(masks)
        self.numerators = tuple(nums)
        self.denominator = den
        return self

    @property
    def weights(self):
        """{coalition: Fraction}, built on first read; every read returns that dict."""
        try:
            return self._weights
        except AttributeError:
            den = self.denominator
            self._weights = {s: Fraction(a, den) for s, a in zip(self.coalitions, self.numerators)}
            return self._weights

    def __eq__(self, other):
        return (
            isinstance(other, BalancedCollection)
            and self.n == other.n
            and self.coalitions == other.coalitions
            and self.numerators == other.numerators
            and self.denominator == other.denominator
        )

    def __hash__(self):
        return hash((self.n, self.coalitions, self.numerators, self.denominator))

    def __repr__(self):
        return "BalancedCollection(%d, %s)" % (self.n, self.to_text())

    def weight_texts(self):
        """Each weight as str(Fraction) writes it, `a/b` or `a`, in coalition order."""
        den = self.denominator
        out = []
        for a in self.numerators:
            g = gcd(a, den)
            out.append(str(a // g) if g == den else "%d/%d" % (a // g, den // g))
        return out

    def to_text(self):
        body = ", ".join(
            "%s:%s" % (format_coalition(s), w)
            for s, w in zip(self.coalitions, self.weight_texts())
        )
        return "n=%d; [%s]" % (self.n, body)


def parse_collection(text):
    """Parse `n=3; [{1,2}:1/2, {1,3}:1/2, {2,3}:1/2]`.

    The one parser of weighted collections, for catalog lines and
    `mbc check`; split_line reads the header and body. Every malformed
    input raises ValueError, a coalition given twice included; weights
    are whatever Fraction() accepts.
    """
    n, items = split_line(text)
    pairs = []
    for part in items:
        coal, sep, frac = part.rpartition(":")
        if not sep:
            raise ValueError("missing weight in %r" % part)
        pairs.append((parse_coalition(coal.strip(), n), parse_weight(frac.strip())))
    return BalancedCollection(n, pairs)


def from_regular_hypergraph(h):
    """Weights = edge multiplicity / regularity; needs a proper regular H."""
    if not h.is_proper:
        raise ValueError("hypergraph must be proper (spanning, no empty edges)")
    k = h.regularity()
    if k is None:
        raise ValueError("hypergraph is not regular")
    mult = Counter(h.edges)
    masks = sorted(mult)
    g = gcd(k, *mult.values())
    # every player's multiplicities sum to k, so the weights sum to 1
    return BalancedCollection._trusted(h.n, masks, [mult[s] // g for s in masks], k // g)


def efficiency(b, game):
    """Weighted sum of worths, sum(lambda(S) * v(S)).

    game is anything with a worth(mask) method over the same players.
    """
    if getattr(game, "n", b.n) != b.n:
        raise ValueError("collection on %d players, game on %d" % (b.n, game.n))
    return Fraction(sum(map(mul, b.numerators, map(game.worth, b.coalitions))), b.denominator)
