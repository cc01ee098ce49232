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
    later call rebuilds it when catalog.collections has changed. Its
    width is the catalog's largest numerator sum over lcd: n * lcd on a
    full catalog, 300 at n=5 and 15120 at n=6. A collection's numerators
    are nonnegative and sum to at most width, so with lo = min(V) and
    hi = max(V) (V(empty) = 0 is among them) every t lies in
    [lo * width, hi * width], and off + t in [0, span] for
    off = -lo * width and span = (hi - lo) * width. The game's fields are
    bits wide, the least multiple of 8 with span < 2^(bits - 1), so each
    field's top bit is clear; for each bits the index holds, built on
    first use, one int per coalition S whose fields are S's numerators
    over lcd, one per collection in catalog order. Then
    off * ones + sum(V(S) * column(S)) holds off + t in every field, with
    no carry between fields, and _field_max and _first_field reduce it
    without unpacking. random_game's worths 0..100 take 16-bit fields at
    n=5, or 24-bit ones with v(N) raised to 500, and 24-bit ones at n=6.
    A game whose span needs more than 64 bits, such as one with a
    Fraction(0.1) worth (denominator 2^55), sums t collection by
    collection.
    """
    if catalog.n != game.n:
        raise ValueError(
            "catalog for n=%d used on a game with n=%d" % (catalog.n, game.n)
        )
    worth = game.worths
    vN = worth[full_mask(game.n)]
    worth_of = worth.__getitem__
    cols = catalog.collections
    if not cols:  # an empty catalog certifies nothing
        return core_lp(game)
    # comparing the lists checks identity first: about a microsecond per
    # thousand collections
    if catalog._scan is None or catalog._scan[0] != cols:
        lcd = lcm(*{b.denominator for b in cols})
        width = max(sum(b.numerators) * (lcd // b.denominator) for b in cols)
        masks = sorted(set().union(*(b.coalitions for b in cols)))
        catalog._scan = (list(cols), lcd, width, masks, {})
    _, lcd, width, masks, packed = catalog._scan
    lo = min(worth)
    # at least 1, so that every numerator fits its field
    span = max(max(worth) - lo, 1) * width
    bits = (span.bit_length() + 8) // 8 * 8
    limit = lcd * vN
    if bits <= 64:
        if bits not in packed:
            packed[bits] = _build_scan(cols, lcd, masks, bits)
        columns, ones, levels = packed[bits]
        off = -lo * width
        x = off * ones + sum(map(mul, map(worth_of, masks), columns))
        top = _field_max(x, bits, levels)
        if top - off <= limit:
            return core_lp(game)
        worst = cols[_first_field(x, top, bits, ones)]
    else:
        ts = [sum(map(mul, b.numerators, map(worth_of, b.coalitions))) * (lcd // b.denominator)
              for b in cols]
        top = max(ts)
        if top <= limit:
            return core_lp(game)
        worst = cols[ts.index(top)]
    return CoreVerdict(False, collection=worst, eff=efficiency(worst, game))


def _build_scan(cols, lcd, masks, bits):
    """(columns, ones, levels), core_mbc's index for fields of `bits` bits.

    columns[i] packs the numerators over lcd of coalition masks[i], one
    bits-wide field per collection of cols in catalog order, field j at
    bit bits * j, and 0 where it is no member; ones and levels are
    _field_masks(len(cols), bits). Each column is filled as an array of
    the smallest item size that holds bits, whose little-endian bytes
    are cut to bits // 8 per field by slicing and read by
    int.from_bytes: OR-ing shifted ints together would be quadratic.
    """
    size = len(cols)
    step = bits // 8
    code = next(c for c in "BHIQ" if array(c).itemsize >= step)
    item = array(code).itemsize
    fields = {s: array(code, bytes(item * size)) for s in masks}
    for j, b in enumerate(cols):
        scale = lcd // b.denominator
        for s, num in zip(b.coalitions, b.numerators):
            fields[s][j] = num * scale
    columns = []
    for s in masks:
        arr = fields.pop(s)
        if sys.byteorder == "big":
            arr.byteswap()
        raw = arr.tobytes()
        if item != step:
            cut = bytearray(step * size)
            for i in range(step):
                cut[i::step] = raw[i::item]
            raw = cut
        columns.append(int.from_bytes(raw, "little"))
    return (columns, *_field_masks(size, bits))


def _field_masks(size, bits):
    """(ones, levels) for size fields of bits bits: ones has a 1 in each
    field, and levels holds _field_max's (shift, low, tops) per halving."""
    ones = int.from_bytes((b"\1" + bytes(bits // 8 - 1)) * size, "little")
    tops = ones << bits - 1
    levels = []
    while size > 1:
        size = (size + 1) // 2
        low = (1 << bits * size) - 1
        levels.append((bits * size, low, tops & low))
    return ones, levels


def _field_max(x, bits, levels):
    """Largest field of x, whose fields all have their top bit clear.

    Each level folds the upper fields onto the lower ones, a field of
    hi standing against the field of lo below it: lo | tops sets every
    field's top bit, so subtracting hi borrows within no field but
    clears its top bit exactly when lo < hi. Widened to a mask of the
    field's low bits, that selects the larger of each pair. An odd field
    count leaves the last lower field against a zero, which keeps it.
    """
    for shift, low, tops in levels:
        lo = x & low
        hi = x >> shift
        ge = ((lo | tops) - hi) & tops
        x = hi ^ ((lo ^ hi) & (ge - (ge >> bits - 1)))
    return x


def _first_field(x, top, bits, ones):
    """Index of the first field of x that equals top, given that one does.

    z is 0 exactly in the fields equal to top, and (z | tops) - ones
    borrows within no field and clears a field's top bit exactly where
    z is 0, so the lowest set bit of zeros lies in the first such field.
    """
    tops = ones << bits - 1
    z = x ^ top * ones
    zeros = ~((z | tops) - ones) & tops
    return ((zeros & -zeros).bit_length() - 1) // bits
