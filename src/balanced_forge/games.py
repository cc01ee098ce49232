"""TU games, the core, and its nonemptiness by two independent routes.

core_lp minimizes total payment against the proper-coalition constraints
(solved exactly through the dual over balanced weight vectors, whose
vertices are minimal balanced collections, so an empty core hands back a
maximally violating collection for free). core_mbc instead scans a
catalog of minimal balanced collections for an efficiency above v(N),
the sharp criterion. The two must agree on every game.
"""
import json
import sys
from array import array
from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import mul

from .core import (
    check_int,
    check_players,
    format_coalition,
    full_mask,
    json_number,
    parse_coalition,
    parse_weight,
    read_json,
    to_common_denominator,
)
from .balanced import BalancedCollection, efficiency
from ._simplex import simplex_min, solve_square

MASK64 = (1 << 64) - 1

# core_mbc's packed scan keeps one efficiency numerator per 32-bit field
# of an array("I"); a field holds HALF + t for |t| < HALF
assert array("I").itemsize == 4
HALF = 1 << 31


def splitmix64(seed):
    """Yield the splitmix64 stream: 64-bit mixing, stable across platforms.

    x += 0x9E3779B97F4A7C15; z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB; output z ^ (z >> 31).
    """
    x = seed & MASK64
    while True:
        x = (x + 0x9E3779B97F4A7C15) & MASK64
        z = x
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        yield z ^ (z >> 31)


class Game:
    """A TU game as ints: v(S) = worths[S] / den for each coalition mask S,
    den being the worths' least common denominator, computed once when built.

    Game(n, worths) takes a {mask: worth} mapping or (mask, worth) pairs
    for every nonempty coalition, each worth read once, as parse_weight
    reads it; a worth given for mask 0 must be 0."""

    __slots__ = ("n", "worths", "den", "_v")

    def __init__(self, n, worths):
        check_players(n)
        full = full_mask(n)
        items = dict(worths)
        for mask in items:
            if type(mask) is not int:
                raise ValueError("coalition %r is not an int bitmask" % (mask,))
            if not 0 <= mask <= full:
                raise ValueError("coalition %r outside players 1..%d" % (mask, n))
        if 0 in items and parse_weight(empty := items.pop(0)) != 0:
            raise ValueError("v(empty) must be 0, got %r" % (empty,))
        if len(items) != full:
            raise ValueError("need worths for all %d nonempty coalitions, got %d" % (full, len(items)))
        # every mask 1..full is present, its worth at index mask - 1
        table = [items[mask] for mask in range(1, full + 1)]
        nums, self.den = to_common_denominator(table)
        self.n = n
        self.worths = (0, *nums)

    @property
    def v(self):
        """[Fraction] indexed by mask, built on first read; every read returns that list."""
        try:
            return self._v
        except AttributeError:
            self._v = [Fraction(w, self.den) for w in self.worths]
            return self._v

    def __eq__(self, other):
        # len(worths) = 2^n, so equal worths mean equal n
        return isinstance(other, Game) and (self.worths, self.den) == (other.worths, other.den)

    def to_json(self):
        return json.dumps(
            {
                "n": self.n,
                "v": {
                    format_coalition(m): json_number(self.v[m])
                    for m in range(1, 1 << self.n)
                },
            },
            separators=(",", ":"),
        )


def game_from_json(text):
    """Parse a game as to_json writes it, `{"n": 2, "v": {"{1}": 0, "{2}": "1/3", "{1,2}": 1}}`.

    v gives each nonempty coalition once. A worth is an integer, a decimal
    or a rational string, read exactly (see read_json and parse_weight).
    """
    obj = read_json(text, "game", ("v",))
    n = obj["n"]
    worths = obj["v"]
    if not isinstance(worths, dict):
        raise ValueError("v must map coalitions to worths, got %r" % (worths,))
    vs = {}
    for key, val in worths.items():
        mask = parse_coalition(key, n)
        if mask == 0:
            raise ValueError("the empty coalition does not belong in a game file")
        if mask in vs:
            raise ValueError("coalition %s appears twice" % key)
        vs[mask] = val
    return Game(n, vs)


def random_game(n, seed, magnitude=100):
    """Integer worths uniform on 0..magnitude from a splitmix64 stream.

    Coalitions are filled in ascending canonical order, one draw each, so
    a (n, seed, magnitude) triple names the same game everywhere. Each is
    an int, not a bool: n in 1..10, magnitude >= 0, and any seed, which
    splitmix64 reads mod 2^64.
    """
    check_int("player count", n, 1, 10)
    check_int("magnitude", magnitude, 0)
    check_int("seed", seed)
    gen = splitmix64(seed)
    worths = {m: next(gen) % (magnitude + 1) for m in range(1, 1 << n)}
    return Game(n, worths)


class CoreVerdict:
    """Outcome of a core test plus its exact certificate.

    nonempty -> payment is a tuple of n rationals with sum v(N) meeting
    every coalition's worth; empty -> collection is a minimal balanced
    collection whose efficiency exceeds v(N). pivots counts the simplex
    pivots the verdict took: 0 when a catalog scan certified it.
    """

    __slots__ = ("nonempty", "payment", "collection", "efficiency", "pivots")

    def __init__(self, nonempty, payment=None, collection=None, eff=None, pivots=0):
        self.nonempty = nonempty
        self.payment = payment
        self.collection = collection
        self.efficiency = eff
        self.pivots = pivots

    def __repr__(self):
        if self.nonempty:
            return "CoreVerdict(nonempty, x=%s)" % (self.payment,)
        return "CoreVerdict(empty, %s, efficiency=%s)" % (
            self.collection.to_text(),
            self.efficiency,
        )


def core_lp(game):
    """Exact LP core test: min sum(x) under the proper-coalition constraints.

    The optimum z* never needs the grand coalition's row: the core is
    nonempty iff z* <= v(N), and then the optimal vertex plus an equal
    share of the surplus v(N) - z* per player lies in the core. When
    z* > v(N) the optimal dual vertex is a maximally violating minimal
    balanced collection; both certificates fall out of one solve.

    The dual's 0/1 rows are built once per n. The LP and the payment system
    take the int worths, v scaled by den > 0, which changes no pivot; z*
    and the payment are divided by den once. The violating collection's
    weights are read from the basis alone, the other entries of x being 0.
    """
    n = game.n
    if n > 12:
        raise ValueError("core_lp capped at n <= 12, got %d" % n)
    if n == 1:
        return CoreVerdict(True, payment=(game.v[1],))
    worth, den = game.worths, game.den
    vN = worth[full_mask(n)]
    rows, members = _dual_incidence(n)
    # dual of the payment LP: max sum v(S) y_S over balanced weights y,
    # column j standing for coalition j + 1
    cost = [-v for v in worth[1:-1]]
    singleton_basis = [(1 << i) - 1 for i in range(n)]
    res = simplex_min(rows, [1] * n, cost, basis=singleton_basis)
    if res.status != "optimal":
        raise RuntimeError("dual core LP failed: %s" % res.status)
    zstar = -res.objective  # den * z*
    if zstar > vN:
        weights = [(j + 1, res.x[j]) for j in res.basis if res.x[j] > 0]
        bc = BalancedCollection._from_vertex(n, weights)
        return CoreVerdict(False, collection=bc, eff=zstar / den, pivots=res.pivots)
    x = solve_square([members[j] for j in res.basis], [worth[j + 1] for j in res.basis])
    surplus = (vN - zstar) / n
    payment = tuple((xi + surplus) / den for xi in x)
    return CoreVerdict(True, payment=payment, pivots=res.pivots)


@lru_cache(maxsize=None)
def _dual_incidence(n):
    """(rows, members) of core_lp's dual at n players, over the proper
    coalitions 1..2^n - 2: rows[i] is player i's 0/1 row, members[j] the
    0/1 vector of coalition j + 1. Kept for each n = 2..12 once built."""
    proper = range(1, full_mask(n))
    rows = tuple(tuple(s >> i & 1 for s in proper) for i in range(n))
    members = tuple(tuple(s >> i & 1 for i in range(n)) for s in proper)
    return rows, members


def core_mbc(game, catalog):
    """Sharp criterion: scan minimal balanced collections for a violation.

    Nonempty iff every collection's efficiency is at most v(N); the
    maximally violating collection certifies emptiness, and witness
    construction for the nonempty case is delegated to core_lp.

    The scan runs in integers over lcd, the lcm of the catalog's weight
    denominators: with V = game.worths over D = game.den, a collection
    with weights num/den has efficiency t / (lcd * D) for
    t = sum(num * (lcd // den) * V(S)), and it violates iff
    t > lcd * V(N). Among collections of equal efficiency the first in
    catalog (canonical) order is kept. The reported efficiency is
    efficiency().

    The first call on a catalog builds an index, catalog._scan, and a
    later call rebuilds it when catalog.collections has changed. When
    the catalog's largest numerator sum over lcd, its width, is below
    HALF = 2^31, the index holds, for each coalition S, one int whose
    32-bit fields are the numerators of S over lcd, one field per
    collection in catalog order. Then bias + sum(V(S) * column(S)), with
    HALF in every field of bias, holds HALF + t in each field, with no
    carry between fields while |t| < HALF, which holds whenever max|V|
    times the width is below HALF; one max and one index then give the
    first collection of largest t. A collection's weights sum to at most
    n, and to n for the singleton partition, so the width is at most
    n * lcd, and equal to it on a full catalog: 300 at n=5 and 15120 at
    n=6, which packs worths up to 7,158,278 and 142,029. Larger worths,
    such as Fraction(0.1) with its denominator 2^55, or a wider catalog
    sum t collection by collection.
    """
    if catalog.n != game.n:
        raise ValueError(
            "catalog for n=%d used on a game with n=%d" % (catalog.n, game.n)
        )
    worth = game.worths
    vN = worth[full_mask(game.n)]
    worth_of = worth.__getitem__
    cols = catalog.collections
    # comparing the lists checks identity first: about a microsecond per
    # thousand collections
    if catalog._scan is None or catalog._scan[0] != cols:
        catalog._scan = _build_scan(cols)
    _, lcd, width, bias, masks, columns = catalog._scan
    if bias is not None and max(map(abs, worth)) * width < HALF:
        x = bias + sum(map(mul, map(worth_of, masks), columns))
        ts = array("I", x.to_bytes(4 * len(cols), sys.byteorder))
        shift = HALF
    else:
        ts = [sum(map(mul, b.numerators, map(worth_of, b.coalitions))) * (lcd // b.denominator)
              for b in cols]
        shift = 0
    if ts:  # an empty catalog certifies nothing
        top = max(ts)
        if top - shift > lcd * vN:
            worst = cols[ts.index(top)]
            return CoreVerdict(False, collection=worst, eff=efficiency(worst, game))
    return core_lp(game)


def _build_scan(cols):
    """(copy of cols, lcd, width, bias, masks, columns), core_mbc's index.

    lcd is the lcm of the denominators in cols and width the largest sum
    of a collection's numerators over lcd; width = n * lcd for a catalog
    holding the singleton partition. When width is below HALF, masks lists
    the coalitions that are members somewhere in cols and columns holds,
    for each, the int packing its numerators over lcd, one 32-bit field per
    collection in catalog order, 0 where it is no member; bias, masks and
    columns are None when no game could use them.
    """
    lcd = lcm(*{b.denominator for b in cols})
    width = max((sum(b.numerators) * (lcd // b.denominator) for b in cols), default=0)
    bias = masks = columns = None
    if width < HALF:
        size = len(cols)
        fields = {}
        for j, b in enumerate(cols):
            scale = lcd // b.denominator
            for s, num in zip(b.coalitions, b.numerators):
                if s not in fields:
                    fields[s] = array("I", bytes(4 * size))
                fields[s][j] = num * scale
        # the fields are read in native byte order, and to_bytes in
        # core_mbc writes them back in the same order
        masks = sorted(fields)
        columns = [int.from_bytes(fields.pop(s), sys.byteorder) for s in masks]
        bias = int.from_bytes(array("I", [HALF]) * size, sys.byteorder)
    return list(cols), lcd, width, bias, masks, columns
