"""Balanced collections of coalitions and their weight systems.

Balancedness of a collection B is decided exactly, in two steps. First
the pair rule: if every member holding player j also holds player i,
and some member holds i but not j, the two players' weight sums of 1
force weight 0 on that member, so B is not balanced; y = e_i - e_j is
the Farkas certificate. Only a collection that covers every player and
has no such pair reaches the LP

    maximize t  subject to  sum(S in B, S containing i) lambda(S) = 1,
                            lambda(S) >= t,

solved in rational arithmetic: B is balanced iff the optimum t* is > 0,
and the returned weights are the optimal vertex (a max-min-weight
solution) reached by Bland's rule, so outputs are deterministic.
Minimality has a fast route (balanced + linearly independent incidence
vectors, hence unique weights) and a literal oracle (no proper
subcollection balanced) kept around to guard the equivalence.

find_balancing_weights is the one decision: it validates the masks once
and hands them to _cached_weights, the only reader and writer of the
process-wide, unbounded _balanced_cache: (n, sorted masks) to the
BalancedCollection the LP built, unvalidated, or None. is_balanced is
that decision's `is not None`. The oracle validates its input once,
through is_balanced, and reads every proper subcollection of the sorted
masks through _cached_weights, so it solves each distinct collection
once. enumeration.enumerate_mbc_oracle's levelwise search hands it only
candidates whose proper subcollections are earlier candidates, so that
route leaves one cache entry per candidate (850 at n=4, 103,612 at n=5)
and solves one LP per minimal balanced collection. is_minimal_balanced
and `mbc check`, which check their masks themselves, read
_cached_weights too. _checked_items validates only outside input: the
public constructor and the file readers.
"""
from collections import Counter
from fractions import Fraction
from itertools import combinations, repeat
from math import gcd, lcm
from operator import floordiv, mul

from .core import (
    _PLAYERS,
    check_players,
    format_coalition,
    full_mask,
    parse_coalition,
    parse_weight,
    players_of,
    split_line,
)
from ._simplex import simplex_min, rank_of_masks

_balanced_cache = {}


def _checked_masks(n, coalitions):
    check_players(n)
    masks = list(coalitions)
    for s in masks:
        if type(s) is not int:
            raise ValueError("coalition %r is not an int bitmask" % (s,))
    masks.sort()
    if not masks:
        raise ValueError("collection must be nonempty")
    if masks[0] == 0:
        raise ValueError("the empty coalition {} does not belong in a collection")
    full = full_mask(n)
    if masks[0] < 0 or masks[-1] > full:
        bad = masks[0] if masks[0] < 0 else next(s for s in masks if s > full)
        raise ValueError("coalition %r outside players 1..%d" % (bad, n))
    for a, b in zip(masks, masks[1:]):
        if a == b:
            raise ValueError("duplicate coalition %s" % format_coalition(a))
    return tuple(masks)


def find_balancing_weights(n, coalitions):
    """Strictly positive exact weights for the collection, or None.

    None covers both failure modes: the per-player equations have no
    nonnegative solution at all, or every solution puts weight 0 on some
    coalition (optimum t* <= 0). A collection that leaves a player
    uncovered, or that the pair rule rejects, returns None without an
    LP. The pair rule: for a player j, let A be the players that every
    member holding j also holds. A member holding a player i of A but
    not j gets weight 0 in every solution, since the members holding j
    already sum to 1 for i. So y = e_i - e_j, with y.e_S >= 0 on every
    member, > 0 on that one, and y.1 = 0, is the Farkas certificate that
    no strictly positive weights exist. The rule fires only where the LP
    returns None, so every result, weights included, is the LP's.

    Validates once, then reads the cached collection (_cached_weights).
    The dict is built afresh from the collection's integers, so a caller
    may mutate it, and the shared collection's weights view stays unbuilt.
    """
    bc = _cached_weights(n, _checked_masks(n, coalitions))
    if bc is None:
        return None
    return dict(zip(bc.coalitions, map(Fraction, bc.numerators, repeat(bc.denominator))))


def _cached_weights(n, masks):
    """The shared cached collection, or None, of _checked_masks's masks."""
    key = (n, masks)
    if key not in _balanced_cache:
        _balanced_cache[key] = _decide(n, masks)
    return _balanced_cache[key]


def _decide(n, masks):
    """Cover check, pair rule, then the LP, on checked sorted masks."""
    cover = 0
    for s in masks:
        cover |= s
    if cover != full_mask(n):
        return None
    for j in range(n):
        bit = 1 << j
        tied = cover
        for s in masks:
            if s & bit:
                tied &= s
        tied ^= bit
        if tied:
            for s in masks:
                if s & tied and not s & bit:
                    return None
    return _balancing_lp(n, masks)


def _balancing_lp(n, masks):
    """The max-min-weight LP on sorted masks that cover every player."""
    m = len(masks)
    # variables: mu_S per coalition, then t+ and t-; lambda = mu + t
    a_rows = []
    for i in range(n):
        row = [s >> i & 1 for s in masks]
        d = sum(row)
        a_rows.append(row + [d, -d])
    res = simplex_min(a_rows, [1] * n, [0] * m + [-1, 1])
    if res.status != "optimal":
        return None
    t = res.x[m] - res.x[m + 1]
    if t <= 0:
        return None
    return BalancedCollection._from_vertex(n, [(s, res.x[j] + t) for j, s in enumerate(masks)])


def is_balanced(n, coalitions):
    """Whether the collection has strictly positive balancing weights:
    find_balancing_weights is not None, decided once per collection and
    cached there."""
    return find_balancing_weights(n, coalitions) is not None


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
    return _cached_weights(n, masks) is not None


def is_minimal_balanced_oracle(n, coalitions):
    """Literal minimality: balanced and no proper subcollection balanced.

    Exponential in the collection size, so player counts above 5 are
    rejected. Subsets are scanned smallest-first so that non-minimal
    inputs exit on the first balanced subcollection found.
    """
    check_players(n)
    if n > 5:
        raise ValueError("oracle limited to n <= 5, got n=%d" % n)
    coalitions = tuple(coalitions)
    # read twice, so held as a tuple; is_balanced validates it, so sorted
    # it is the checked masks, and so is every subcollection in order
    if not is_balanced(n, coalitions):
        return False
    masks = tuple(sorted(coalitions))
    for size in range(1, len(masks)):
        for sub in combinations(masks, size):
            if _cached_weights(n, sub) is not None:
                return False
    return True


def _checked_items(n, items):
    """(masks, numerators, denominator) of the collection of (mask, p, q) items.

    The one validator of a collection's coalitions and weights: the weight
    of mask is p/q, ints in lowest terms with q >= 1. It raises ValueError,
    in this order, on a mask that is not an int, an empty list, the empty
    coalition, a mask outside players 1..n, a repeated mask, a weight that
    is not positive (the first in mask order) and a player whose weights
    do not sum to 1 (the first player). Masks come back ascending, and the
    numerators are over the lcm of the q, so equal weights give equal ints.
    """
    firsts, ps, qs = zip(*items) if items else ((), (), ())
    masks = _checked_masks(n, firsts)
    if masks != firsts:
        # distinct int masks, so the items sort by mask alone
        _, ps, qs = zip(*sorted(items))
    # positivity and per-player sums of 1, checked on numerators over the lcm
    if min(ps) <= 0:
        s, p, q = next(item for item in zip(masks, ps, qs) if item[1] <= 0)
        raise ValueError(
            "weight of %s must be positive, got %s" % (format_coalition(s), Fraction(p, q))
        )
    den = lcm(*qs)
    if qs.count(den) == len(qs):
        nums = ps
    else:
        nums = tuple(map(mul, ps, map(floordiv, repeat(den), qs)))
    sums = [0] * (n + 1)
    for s, num in zip(masks, nums):
        for i in _PLAYERS[s] if s < 256 else players_of(s):
            sums[i] += num
    if sums.count(den) != n:
        i = next(i for i in range(1, n + 1) if sums[i] != den)
        raise ValueError("player %d weight sum is %s, expected 1" % (i, Fraction(sums[i], den)))
    return masks, nums, den


class BalancedCollection:
    """A balanced collection as integers: the weight of coalitions[i] is
    numerators[i] / denominator, over the lcm of the reduced weight
    denominators, so equal weights give equal integers.

    Construction validates everything through _checked_items, the one
    validator: distinct nonempty coalitions in canonical order, strictly
    positive weights, and the per-player sum identity. Equality and hashing
    cover the weights; catalogs deduplicate on .coalitions alone, which is
    enough for minimal collections since their weights are unique.
    """

    __slots__ = ("n", "coalitions", "numerators", "denominator", "_weights")

    def __init__(self, n, weights):
        """weights: a {coalition: weight} mapping or (coalition, weight) pairs,
        each weight read as parse_weight reads it; a coalition given twice
        raises ValueError."""
        pairs = weights.items() if hasattr(weights, "keys") else weights
        items = [(s, *parse_weight(w).as_integer_ratio()) for s, w in pairs]
        self.n = n
        self.coalitions, self.numerators, self.denominator = _checked_items(n, items)

    @classmethod
    def _from_items(cls, n, items):
        """The collection of (mask, p, q) items, validated by _checked_items."""
        return cls._trusted(n, *_checked_items(n, items))

    @classmethod
    def _trusted(cls, n, masks, nums, den):
        """Skip validation; the triple must be exact and in lowest terms.

        The kernels' exact elimination and the LPs' vertices (_from_vertex)
        give the per-player identity by construction; revalidating 200k+
        collections at n=6 would double the enumeration time. Tests
        re-validate full catalogs for n <= 5 and samples beyond, and the LP
        collections in test_oracle_cache_holds_valid_collections and
        test_core_lp_hands_the_lp_only_ints.
        """
        self = object.__new__(cls)
        self.n = n
        self.coalitions = tuple(masks)
        self.numerators = tuple(nums)
        self.denominator = den
        return self

    @classmethod
    def _from_vertex(cls, n, pairs):
        """Unvalidated collection of an LP vertex's (mask, Fraction) pairs."""
        masks, ws = zip(*sorted(pairs))
        den = lcm(*(w.denominator for w in ws))
        return cls._trusted(n, masks, [w.numerator * (den // w.denominator) for w in ws], den)

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

    def weight_texts(self, memo=None):
        """Each weight as str(Fraction) writes it, `a/b` or `a`, in coalition order.

        A writer of many collections passes one memo dict for all of them,
        (numerator, denominator) -> text; catalogs repeat their weights.
        """
        if memo is None:
            memo = {}
        out = []
        for key in zip(self.numerators, repeat(self.denominator)):
            text = memo.get(key)
            if text is None:
                text = memo[key] = _weight_text(*key)
            out.append(text)
        return out

    def to_text(self, memo=None):
        """`n=<players>; [<coalition>:<weight>, ...]`, the form parse_collection reads.

        A writer of many collections passes one memo dict for all of them,
        (mask, numerator, denominator) -> item text; catalogs repeat their
        items.
        """
        if memo is None:
            memo = {}
        den = self.denominator
        out = []
        for key in zip(self.coalitions, self.numerators, repeat(den)):
            text = memo.get(key)
            if text is None:
                text = memo[key] = "%s:%s" % (format_coalition(key[0]), _weight_text(key[1], den))
            out.append(text)
        return "n=%d; [%s]" % (self.n, ", ".join(out))


def _weight_text(a, den):
    """a/den as str(Fraction) writes it, reduced: `a/b` or `a`."""
    g = gcd(a, den)
    return str(a // g) if g == den else "%d/%d" % (a // g, den // g)


def parse_item(coalition, weight, n):
    """The (mask, p, q) item of a coalition text and a weight on n players:
    parse_coalition, then parse_weight's Fraction in lowest terms."""
    mask = parse_coalition(coalition, n)
    w = parse_weight(weight)
    return mask, w.numerator, w.denominator


def parse_collection(text, memo=None):
    """Parse `n=3; [{1,2}:1/2, {1,3}:1/2, {2,3}:1/2]`.

    The one parser of weighted collections, for catalog lines and
    `mbc check`; split_line reads the header and body. Every malformed
    input raises ValueError, a coalition given twice included; weights
    are whatever parse_weight accepts. A reader of many lines passes one
    memo dict for all of them, (item text, n) -> parse_item's item;
    catalogs repeat their items. Every collection is still validated
    whole by _checked_items.
    """
    n, parts = split_line(text)
    if memo is None:
        memo = {}
    items = []
    for part in parts:
        key = (part, n)
        item = memo.get(key)
        if item is None:
            coal, sep, frac = part.rpartition(":")
            if not sep:
                raise ValueError("missing weight in %r" % part)
            item = memo[key] = parse_item(coal.strip(), frac.strip(), n)
        items.append(item)
    return BalancedCollection._from_items(n, items)


def from_regular_hypergraph(h):
    """Weights = edge multiplicity / regularity; needs a proper regular H.

    The edge multiset is counted once: properness and the node degrees
    come from its distinct masks times their multiplicities. An improper
    H raises ValueError before an irregular one.
    """
    n = h.n
    mult = Counter(h.edges)
    cover = 0
    degrees = [0] * (n + 1)  # by player id; degrees[0] stays 0
    for s, c in mult.items():
        cover |= s
        for i in _PLAYERS[s] if s < 256 else players_of(s):
            degrees[i] += c
    if 0 in mult or cover != full_mask(n):
        raise ValueError("hypergraph must be proper (spanning, no empty edges)")
    k = degrees[1]  # >= 1, as player 1 is covered
    if degrees.count(k) != n:
        raise ValueError("hypergraph is not regular")
    masks = sorted(mult)
    g = gcd(k, *mult.values())
    # every player's multiplicities sum to k, so the weights sum to 1
    return BalancedCollection._trusted(n, masks, [mult[s] // g for s in masks], k // g)


def efficiency(b, game):
    """Weighted sum of worths, sum(lambda(S) * v(S)), as one Fraction.

    The sum runs in the game's int worths V over its denominator D and
    the collection's numerators, and one Fraction is built:
    sum(num(S) * V(S)) / (denominator * D).
    """
    if game.n != b.n:
        raise ValueError("collection on %d players, game on %d" % (b.n, game.n))
    worths = map(game.worths.__getitem__, b.coalitions)
    return Fraction(sum(map(mul, b.numerators, worths)), b.denominator * game.den)
