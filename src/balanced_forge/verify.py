"""The paper's checks, each written once.

A suite is a function that runs one family of checks and returns a list
of (name, ok, detail) tuples; SUITES names them. `balforge verify` prints
the tuples and the acceptance tests assert them, so both run this code.
The default ranges are the signatures' defaults. A range that yields no
work raises ValueError, so a suite never passes by checking nothing.
"""
import time

from .balanced import BalancedCollection, is_minimal_balanced
from .core import check_int, format_coalition, full_mask
from .counting import count_cumulative, count_spanning
from .decomposition import IncompleteDecomposition, decompose, decompose_all
from .enumeration import (
    TABLE1,
    enumerate_mbc,
    enumerate_minimally_uniform,
    enumerate_proper,
    enumerate_uniform,
)
from .games import Game, core_lp, core_mbc, random_game
from .hypergraph import Hypergraph, is_minimally_regular, is_minimally_uniform

TRIANGLE = (0b011, 0b101, 0b110)
# 7 nodes, 4 edges of size 4, and two of its known partitions into
# minimally uniform blocks: the decomposition is not unique
FIG3 = Hypergraph(7, [0b0001111, 0b1110001, 0b0111100, 0b1101100])
FIG3_PARTITIONS = (
    frozenset({0b0100101, 0b1011010}),
    frozenset({0b0100010, 0b1011101}),
)


def _first(failures):
    return ", first %s" % failures[0].to_text() if failures else ""


def table1(max_n=5):
    """Direct-route catalog counts against TABLE1 for n = 2..max_n.

    Each count must also arrive within its wall-clock bound: 60 s for
    n <= 5 and 1800 s for n = 6. max_n stops at 6: the count comes from
    the whole catalog, and the n = 7 one holds 132,422,036 collections,
    about 33 GB in memory.
    """
    check_int("max_n", max_n, 2, 6)
    checks = []
    for n in range(2, max_n + 1):
        t0 = time.monotonic()
        got = enumerate_mbc(n).count
        dt = time.monotonic() - t0
        bound = 60.0 if n <= 5 else 1800.0
        checks.append((
            "table1 n=%d" % n,
            got == TABLE1[n] and dt < bound,
            "count=%d want=%d time=%.2fs bound=%.0fs" % (got, TABLE1[n], dt, bound),
        ))
    return checks


def example8():
    """The small counting example: 1 + 7 = 8 spanning pair hypergraphs
    with three edges on up to 3 nodes, by formula and by listing, and the
    triangle as the only minimally uniform one."""
    checks = [
        (name, got == want, "=%d want %d" % (got, want))
        for name, got, want in (
            ("cumulative(3,2,3)", count_cumulative(3, 2, 3), 8),
            ("spanning(2,2,3)", count_spanning(2, 2, 3), 1),
            ("spanning(3,2,3)", count_spanning(3, 2, 3), 7),
            ("enum(3,2,3,span)", len(enumerate_uniform(3, 2, 3, spanning=True)), 7),
            ("enum(2,2,3,span)", len(enumerate_uniform(2, 2, 3, spanning=True)), 1),
        )
    ]
    minimal = enumerate_minimally_uniform(3, 2, 3)
    checks.append((
        "minimal(3,2,3)",
        [h.edges for h in minimal] == [TRIANGLE],
        "=%d want 1, the triangle: %s" % (len(minimal), "; ".join(h.to_text() for h in minimal)),
    ))
    return checks


def prop1(max_nodes=5, max_size=4):
    """Prop. 1 on every proper hypergraph with 1..max_nodes nodes and at
    most max_size edges: H is minimally uniform iff its dual is minimally
    regular, and the dual of the dual is H."""
    check_int("max_nodes", max_nodes, 1)
    check_int("max_size", max_size, 1)
    checks = []
    for n in range(1, max_nodes + 1):
        total = 0
        bad = []
        involution_bad = []
        for h in enumerate_proper(n, max_size):
            total += 1
            d = h.dual()
            if is_minimally_uniform(h) != is_minimally_regular(d):
                bad.append(h)
            if d.dual() != h.canonicalize():
                involution_bad.append(h)
        checks.append((
            "prop1 n=%d equivalence" % n,
            not bad,
            "%d mismatches / %d hypergraphs%s" % (len(bad), total, _first(bad)),
        ))
        checks.append((
            "prop1 n=%d dual involution" % n,
            not involution_bad,
            "%d failures%s" % (len(involution_bad), _first(involution_bad)),
        ))
    return checks


def prop2(max_nodes=6):
    """Prop. 2: every spanning k-uniform hypergraph with 1..max_nodes
    nodes, k <= 3 and at most 4 edges decomposes into minimally uniform
    blocks; and FIG3 has both of its known partitions."""
    check_int("max_nodes", max_nodes, 1)
    checks = []
    for n in range(1, max_nodes + 1):
        total = 0
        failed = []
        for k in range(1, min(3, n) + 1):
            for p in range(1, 5):
                for h in enumerate_uniform(n, k, p, spanning=True):
                    total += 1
                    try:
                        decompose(h)
                    except IncompleteDecomposition:
                        failed.append(h)
        checks.append((
            "prop2 n=%d existence" % n,
            not failed,
            "%d failures / %d hypergraphs%s" % (len(failed), total, _first(failed)),
        ))
    found = {frozenset(p.blocks) for p in decompose_all(FIG3)}
    checks.append((
        "prop2 non-uniqueness",
        all(want in found for want in FIG3_PARTITIONS),
        "%d partitions" % len(found),
    ))
    return checks


def verdict_problem(game, verdict):
    """What is wrong with a core verdict's certificate, or None.

    A payment must share out v(N) exactly and give every coalition at
    least its worth. A collection's weights, as .weights reads them, must
    pass the BalancedCollection validator, whose message is the problem;
    the collection must be minimal balanced, and its efficiency,
    recomputed here, must equal the reported one and exceed v(N).
    """
    n, v = game.n, game.v
    vn = v[full_mask(n)]
    if verdict.nonempty:
        x = verdict.payment
        if sum(x) != vn:
            return "payment sums to %s, v(N) = %s" % (sum(x), vn)
        for s in range(1, 1 << n):
            if sum(x[i] for i in range(n) if s >> i & 1) < v[s]:
                return "payment leaves %s below its worth" % format_coalition(s)
        return None
    bc = verdict.collection
    w = bc.weights
    try:
        BalancedCollection(n, w)
    except ValueError as exc:
        return str(exc)
    if not is_minimal_balanced(n, bc.coalitions):
        return "%s is not minimal balanced" % bc.to_text()
    eff = sum(w[s] * v[s] for s in bc.coalitions)
    if eff != verdict.efficiency:
        return "efficiency is %s, reported %s" % (eff, verdict.efficiency)
    if not eff > vn:
        return "efficiency %s does not exceed v(N) = %s" % (eff, vn)
    return None


def _sharpbs_games(n, games):
    """Seeded random games; after every fourth, the same game with v(N) = n * 100.

    Paying every player 100 meets every worth of random_game, so each
    raised game has a nonempty core and reaches core_lp's payment path.
    """
    for seed in range(games):
        g = random_game(n, seed)
        yield "seed %d" % seed, False, g
        if seed % 4 == 3:
            worths = {m: g.v[m] for m in range(1, 1 << n)}
            worths[full_mask(n)] = n * 100
            yield "seed %d raised" % seed, True, Game(n, worths)


def sharpbs(max_n=4, games=1000):
    """LP core test = catalog core test (the sharp criterion), n = 2..max_n.

    Runs sharpbs_catalog on the direct catalog of each n. max_n stops at
    6: the n = 7 catalog holds 132,422,036 collections, about 33 GB in
    memory.
    """
    check_int("max_n", max_n, 2, 6)
    check_int("games", games, 1)
    checks = []
    for n in range(2, max_n + 1):
        checks += sharpbs_catalog(enumerate_mbc(n), games)
    return checks


def sharpbs_catalog(catalog, games):
    """The sharpbs checks on one catalog of minimal balanced collections.

    On `games` seeded games on catalog.n players, plus a raised game for
    every fourth: both routes give the same emptiness, payment and
    efficiency; every certificate of both passes verdict_problem; every
    raised game has a nonempty core.
    """
    n = catalog.n
    total = nonempty = 0
    first = {}
    for label, raised, g in _sharpbs_games(n, games):
        a = core_lp(g)
        b = core_mbc(g, catalog)
        total += 1
        nonempty += a.nonempty
        if (a.nonempty, a.payment, a.efficiency) != (b.nonempty, b.payment, b.efficiency):
            first.setdefault("agreement", label)
        for route, verdict in (("LP", a), ("catalog", b)):
            problem = verdict_problem(g, verdict)
            if problem:
                first.setdefault("certificates", "%s, %s route: %s" % (label, route, problem))
        if raised and not (a.nonempty and b.nonempty):
            first.setdefault("raised cores nonempty", label)
    checks = []
    for name, detail in (
        ("agreement", "%d games, %d nonempty" % (total, nonempty)),
        ("certificates", "exact revalidation"),
        ("raised cores nonempty", "v(N) = %d" % (n * 100)),
    ):
        checks.append((
            "sharpbs n=%d %s" % (n, name),
            name not in first,
            "first failure: %s" % first[name] if name in first else detail,
        ))
    return checks


SUITES = {
    "table1": table1,
    "example8": example8,
    "prop1": prop1,
    "prop2": prop2,
    "sharpbs": sharpbs,
}
