import json
import time
from fractions import Fraction
from operator import mul

import pytest

from balanced_forge import core, games
from balanced_forge._simplex import simplex_min, solve_square
from balanced_forge.balanced import BalancedCollection, efficiency
from balanced_forge.core import json_number, to_common_denominator
from balanced_forge.enumeration import MbcCatalog, enumerate_mbc
from balanced_forge.games import (
    HALF,
    CoreVerdict,
    Game,
    core_lp,
    core_mbc,
    game_from_json,
    random_game,
    splitmix64,
)
from balanced_forge.verify import verdict_problem


def test_splitmix64_reference_stream():
    # published outputs of the reference generator for seed 0
    gen = splitmix64(0)
    assert [next(gen) for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_splitmix64_determinism():
    a = splitmix64(123456789)
    b = splitmix64(123456789)
    first = [next(a) for _ in range(5)]
    assert first == [next(b) for _ in range(5)]
    assert all(0 <= x < 1 << 64 for x in first)
    assert next(splitmix64(1)) != first[0]


def test_game_requires_zero_empty_worth():
    with pytest.raises(ValueError):
        Game(2, {0: 1, 1: 0, 2: 0, 3: 1})


def test_game_requires_full_table():
    with pytest.raises(ValueError):
        Game(2, {1: 0, 3: 1})


def test_game_rejects_foreign_coalition():
    with pytest.raises(ValueError):
        Game(2, {1: 0, 2: 0, 3: 1, 4: 0})
    # a coalition is an int bitmask: 2.5 is not coerced to {2}, which would
    # leave {1,2} silently at 0
    with pytest.raises(ValueError, match="not an int bitmask"):
        Game(2, {1: 1, 2: 1, 2.5: 3})
    for key in ("3", 3.0, True):
        with pytest.raises(ValueError, match="not an int bitmask"):
            Game(1, {key: 1})
    # nor is the empty coalition's key coerced
    for key in (0.0, False):
        with pytest.raises(ValueError, match="not an int bitmask"):
            Game(1, {key: 0, 1: 1})


def test_game_worths_become_fractions():
    g = Game(2, {1: "1/3", 2: 0.5, 3: 2})
    assert g.v[1] == Fraction(1, 3)
    assert g.v[2] == Fraction(1, 2)
    assert g.v[0] == 0


def test_game_is_its_integer_worth_vector():
    g = Game(2, {1: "1/3", 2: 0.5, 3: 2})
    assert (g.worths, g.den) == ((0, 2, 3, 12), 6)
    assert all(type(w) is int for w in g.worths)
    assert g.v is g.v
    assert g.v == [Fraction(w, 6) for w in g.worths]
    ints = Game(3, {m: m * m - 7 for m in range(1, 8)})
    assert (ints.den, ints.worths[1:]) == (1, tuple(m * m - 7 for m in range(1, 8)))
    assert ints == Game(3, {m: Fraction(m * m - 7) for m in range(1, 8)})
    assert ints == Game(3, {m: Fraction(2 * m * m - 14, 2) for m in range(1, 8)})
    assert ints != Game(3, {m: Fraction(m * m - 7, 2) for m in range(1, 8)})
    assert Game(1, {1: Fraction(1, 2)}) != Game(1, {1: 1})


def test_core_tests_convert_no_worths(monkeypatch):
    # the worths go over their denominator once, when a game is built
    cases = []
    for n in (4, 5):
        catalog = enumerate_mbc(n)
        for seed in range(4):
            g = random_game(n, seed)
            worths = {m: g.v[m] for m in range(1, 1 << n)}
            worths[(1 << n) - 1] = n * 100
            raised = Game(n, worths)
            halved = Game(n, {m: Fraction(w, 2) for m, w in worths.items()})
            cases += [(catalog, g), (catalog, raised), (catalog, halved)]

    def outcome(catalog, g):
        verdict = core_mbc(g, catalog)
        effs = [efficiency(b, g) for b in catalog.collections[:50]]
        return verdict.nonempty, verdict.efficiency, verdict.payment, effs

    want = [outcome(*case) for case in cases]
    assert {nonempty for nonempty, *_ in want} == {False, True}

    def refuse(values):
        raise AssertionError("worths converted again")

    # core defines the conversion and games is the one module importing it
    monkeypatch.setattr(core, "to_common_denominator", refuse)
    monkeypatch.setattr(games, "to_common_denominator", refuse)
    for (catalog, g), expected in zip(cases, want):
        assert outcome(catalog, g) == expected
        # an empty core_lp verdict builds its collection from weights,
        # which BalancedCollection puts over their own denominator
        if expected[0]:
            assert core_lp(g).payment == expected[2]


BAD_VALUES = (None, [1], True, "x", "1/0", "1e2000000", "1" * 4301 + "/1")


@pytest.mark.parametrize("value", BAD_VALUES, ids=lambda value: repr(value)[:12])
def test_every_entry_point_refuses_a_bad_value_as_parse_weight_does(value):
    with pytest.raises(ValueError) as refused:
        core.parse_weight(value)
    message = str(refused.value)
    entry_points = {
        "Game": lambda: Game(1, {1: value}),
        "Game v(empty)": lambda: Game(1, {0: value, 1: 1}),
        "BalancedCollection": lambda: BalancedCollection(1, {1: value}),
        "to_common_denominator": lambda: to_common_denominator([Fraction(1, 2), value]),
        "game_from_json": lambda: game_from_json('{"n":1,"v":{"{1}":%s}}' % json.dumps(value)),
    }
    for name, call in entry_points.items():
        start = time.perf_counter()
        with pytest.raises(ValueError) as refused:
            call()
        assert time.perf_counter() - start < 0.1, name
        assert str(refused.value) == message, name


def test_game_from_json_reads_each_worth_once(monkeypatch):
    calls = []

    def counting(value):
        calls.append(value)
        return parse_weight(value)

    g = Game(4, {m: Fraction(m, 3) for m in range(1, 16)})
    parse_weight = core.parse_weight
    monkeypatch.setattr(core, "parse_weight", counting)
    monkeypatch.setattr(games, "parse_weight", counting)
    assert game_from_json(g.to_json()) == g
    # 2^4 - 1 distinct worths, each read once, as the file writes it
    assert sorted(calls, key=Fraction) == [json_number(g.v[m]) for m in range(1, 16)]


def test_game_json_exact_form():
    g = Game(2, {1: 0, 2: Fraction(1, 2), 3: 1})
    assert g.to_json() == '{"n":2,"v":{"{1}":0,"{2}":"1/2","{1,2}":1}}'


def test_game_json_roundtrip():
    g = random_game(4, 11)
    assert game_from_json(g.to_json()) == g
    h = Game(2, {1: Fraction(-3, 7), 2: 1, 3: Fraction(9, 2)})
    assert game_from_json(h.to_json()) == h


def test_game_json_rejects_empty_coalition():
    with pytest.raises(ValueError):
        game_from_json('{"n":2,"v":{"{}":0,"{1}":0,"{2}":0,"{1,2}":1}}')


def test_game_json_rejects_duplicate_coalition():
    with pytest.raises(ValueError):
        game_from_json('{"n":2,"v":{"{1}":0,"{2}":0,"{1,2}":1,"{2,1}":1}}')


def test_game_json_reads_decimal_worths_exactly():
    # 0.1 as a binary double exceeds 1/10, which would empty this core
    text = '{"n":2,"v":{"{1}":0.1,"{2}":0,"{1,2}":"1/10"}}'
    g = game_from_json(text)
    assert g == game_from_json(text.replace("0.1", '"1/10"'))
    assert g.v[1] == Fraction(1, 10)


def test_random_game_frozen_worths():
    g = random_game(3, 42)
    assert [int(g.v[m]) for m in range(1, 8)] == [23, 63, 43, 5, 42, 59, 93]


def test_random_game_determinism_and_caps():
    assert random_game(4, 9) == random_game(4, 9)
    assert random_game(4, 9) != random_game(4, 10)
    with pytest.raises(ValueError):
        random_game(11, 0)
    with pytest.raises(ValueError, match="^magnitude must be >= 0, got -1$"):
        random_game(3, 0, magnitude=-1)
    # a float magnitude would give fractional worths, a bool the range 0..1;
    # a seed may be any int, negative too, but not a bool or a float
    for magnitude in (2.5, True):
        with pytest.raises(ValueError, match="^magnitude must be an int, got %s$" % magnitude):
            random_game(2, 1, magnitude)
    for seed in (1.5, True):
        with pytest.raises(ValueError, match="^seed must be an int, got %s$" % seed):
            random_game(2, seed)
    assert random_game(2, -1) == random_game(2, 2**64 - 1)
    flat = random_game(3, 5, magnitude=0)
    assert all(v == 0 for v in flat.v)


def test_core_single_player():
    verdict = core_lp(Game(1, {1: 5}))
    assert verdict.nonempty
    assert verdict.payment == (5,)
    assert type(verdict.payment[0]) is Fraction


def test_core_unanimity_split():
    g = Game(2, {1: 0, 2: 0, 3: 1})
    verdict = core_lp(g)
    assert verdict.nonempty
    assert verdict.payment == (Fraction(1, 2), Fraction(1, 2))


def test_core_pair_game_is_empty():
    g = Game(3, {1: 0, 2: 0, 4: 0, 3: 1, 5: 1, 6: 1, 7: 1})
    verdict = core_lp(g)
    assert not verdict.nonempty
    assert verdict.payment is None
    bc = verdict.collection
    assert bc.coalitions == (3, 5, 6)
    assert set(bc.weights.values()) == {Fraction(1, 2)}
    assert verdict.efficiency == Fraction(3, 2)
    assert verdict.efficiency == efficiency(bc, g)


def test_core_additive_game():
    worths = {m: sum(x for i, x in enumerate((3, 1, 4)) if m >> i & 1) for m in range(1, 8)}
    verdict = core_lp(Game(3, worths))
    assert verdict.nonempty
    assert verdict.payment == (3, 1, 4)


def test_core_empty_frozen_witness():
    verdict = core_lp(random_game(3, 7))
    assert not verdict.nonempty
    assert verdict.collection.to_text() == "n=3; [{1}:1, {2}:1, {3}:1]"
    assert verdict.efficiency == 102
    assert verdict.pivots == 3


def test_core_payment_is_always_in_core():
    for seed in range(40):
        g = random_game(4, seed)
        verdict = core_lp(g)
        if verdict.nonempty:
            assert verdict_problem(g, verdict) is None, seed


PAIR_GAME = Game(3, {1: 0, 2: 0, 4: 0, 3: 1, 5: 1, 6: 1, 7: 1})


@pytest.mark.parametrize("case, message", [
    ("payment off v(N)", "payment sums to 3/2, v(N) = 1"),
    ("payment below a worth", "payment leaves {2} below its worth"),
    ("one weight changed", "player 1 weight sum is 3/2, expected 1"),
    ("not minimal", "n=3; [{1}:1/2, {2}:1/2, {3}:1/2, {1,2,3}:1/2] is not minimal balanced"),
    ("efficiency misreported", "efficiency is 3/2, reported 5/2"),
    ("efficiency at most v(N)", "efficiency 3/2 does not exceed v(N) = 2"),
])
def test_verdict_problem_rejects_bad_certificates(case, message):
    half = Fraction(1, 2)
    pairs = core_lp(PAIR_GAME)
    assert verdict_problem(PAIR_GAME, pairs) is None
    game = PAIR_GAME
    if case == "payment off v(N)":
        game = Game(2, {1: 0, 2: 0, 3: 1})
        verdict = CoreVerdict(True, payment=(half, 1))
    elif case == "payment below a worth":
        game = Game(2, {1: 0, 2: Fraction(1, 4), 3: 1})
        verdict = CoreVerdict(True, payment=(1, 0))
    elif case == "one weight changed":
        bc = BalancedCollection._trusted(3, (3, 5, 6), (2, 1, 1), 2)
        verdict = CoreVerdict(False, collection=bc, eff=pairs.efficiency)
    elif case == "not minimal":
        bc = BalancedCollection(3, {1: half, 2: half, 4: half, 7: half})
        verdict = CoreVerdict(False, collection=bc, eff=efficiency(bc, game))
    elif case == "efficiency misreported":
        verdict = CoreVerdict(False, collection=pairs.collection, eff=pairs.efficiency + 1)
    else:
        game = Game(3, {1: 0, 2: 0, 4: 0, 3: 1, 5: 1, 6: 1, 7: 2})
        verdict = CoreVerdict(False, collection=pairs.collection, eff=pairs.efficiency)
    assert verdict_problem(game, verdict) == message


def test_core_lp_hands_the_lp_only_ints(monkeypatch):
    """Every game reaches simplex_min and solve_square as plain ints: its
    worths over its den, whether integral, halved, negative or fractional."""
    entries = []
    calls = {"lp": 0, "square": 0}

    def record_lp(A, b, c, basis=None):
        calls["lp"] += 1
        entries.extend(v for row in A for v in row)
        entries.extend(b)
        entries.extend(c)
        return simplex_min(A, b, c, basis)

    def record_square(M, rhs):
        calls["square"] += 1
        entries.extend(v for row in M for v in row)
        entries.extend(rhs)
        return solve_square(M, rhs)

    monkeypatch.setattr(games, "simplex_min", record_lp)
    monkeypatch.setattr(games, "solve_square", record_square)
    for n in range(3, 7):
        for seed in range(6):
            g = random_game(n, seed)
            worths = {m: g.v[m] for m in range(1, 1 << n)}
            if seed % 2:
                # v(N) = n * 100 gives a nonempty core, so solve_square runs
                worths[(1 << n) - 1] = n * 100
                g = Game(n, worths)
            halved = Game(n, {m: w / 2 for m, w in worths.items()})
            negative = Game(n, {m: w - 60 for m, w in worths.items()})
            for game in (g, halved, negative):
                verdict = core_lp(game)
                assert verdict_problem(game, verdict) is None, (n, seed)
                # the certificate is built from the LP vertex unvalidated
                c = verdict.collection
                assert c is None or c == BalancedCollection(n, c.weights), (n, seed)
                if game is not negative:
                    assert verdict.nonempty == bool(seed % 2), (n, seed)
    for seed in range(6):
        g = _fractional_game(seed)
        assert g.den > 1
        assert verdict_problem(g, core_lp(g)) is None, seed
    assert calls == {"lp": 78, "square": 38}
    assert {type(v) for v in entries} == {int}


def test_core_lp_cap():
    g = Game(13, {m: 0 for m in range(1, 1 << 13)})
    with pytest.raises(ValueError):
        core_lp(g)


def test_core_mbc_matches_lp():
    for n in (2, 3, 4):
        catalog = enumerate_mbc(n)
        for seed in range(30):
            g = random_game(n, seed)
            via_lp = core_lp(g)
            via_cat = core_mbc(g, catalog)
            assert via_lp.nonempty == via_cat.nonempty
            assert via_lp.pivots > 0
            if via_lp.nonempty:
                assert via_cat.payment == via_lp.payment
                assert via_cat.pivots == via_lp.pivots
            else:
                for verdict in (via_lp, via_cat):
                    assert verdict_problem(g, verdict) is None, (n, seed)


def _first_maximal(catalog, game):
    """Reference scan, one efficiency() at a time: the first largest efficiency."""
    best = None
    for bc in catalog.collections:
        e = efficiency(bc, game)
        if best is None or e > best[1]:
            best = (bc, e)
    return best


def _symmetric_game(n, by_size):
    return Game(n, {m: by_size[m.bit_count()] for m in range(1, 1 << n)})


@pytest.mark.parametrize("n", [4, 5])
def test_core_mbc_symmetric_ties_keep_first_in_catalog_order(n):
    # v depends on |S| only, so many collections share the top efficiency
    catalog = enumerate_mbc(n)
    gen = splitmix64(n)
    checked = ties = 0
    for _ in range(40):
        # cheap singletons, so the top is rarely the one-member orbit {1},...,{n}
        by_size = [0, next(gen) % 10] + [next(gen) % 50 for _ in range(n - 2)]
        by_size.append(next(gen) % 100)
        g = _symmetric_game(n, by_size)
        bc, top = _first_maximal(catalog, g)
        verdict = core_mbc(g, catalog)
        assert verdict.nonempty == (top <= g.v[-1]) == core_lp(g).nonempty
        if verdict.nonempty:
            continue
        assert verdict.collection is bc
        assert verdict.efficiency == top
        ties += sum(1 for other in catalog.collections if efficiency(other, g) == top) > 1
        checked += 1
    assert checked >= 10 and ties >= 10


def _fractional_game(seed):
    base = random_game(4, seed)
    return Game(4, {m: base.v[m] / (1 + (m + seed) % 7) - Fraction(1, 3) for m in range(1, 16)})


def test_core_mbc_fractional_worths():
    catalog = enumerate_mbc(4)
    for seed in range(30):
        g = _fractional_game(seed)
        via_lp = core_lp(g)
        via_cat = core_mbc(g, catalog)
        assert via_lp.nonempty == via_cat.nonempty
        if not via_cat.nonempty:
            bc, top = _first_maximal(catalog, g)
            assert via_cat.collection is bc
            assert via_cat.efficiency == top == via_lp.efficiency


def _assert_first_maximal(catalog, g):
    """core_mbc against the reference scan; returns whether the core is empty."""
    bc, top = _first_maximal(catalog, g)
    verdict = core_mbc(g, catalog)
    assert verdict.nonempty == (top <= g.v[-1])
    if not verdict.nonempty:
        assert verdict.collection is bc
        assert verdict.efficiency == top
        assert verdict.pivots == 0
    return not verdict.nonempty


@pytest.mark.parametrize("change", ["scaled by 2^40", "one worth Fraction(0.1)"])
def test_core_mbc_scalar_path(change):
    # worths too wide for 32-bit fields take the scalar loop
    catalog = enumerate_mbc(4)
    empty = 0
    for seed in range(30):
        base = _fractional_game(seed)
        if change == "scaled by 2^40":
            g = Game(4, {m: base.v[m] * (1 << 40) for m in range(1, 16)})
        else:
            g = Game(4, {m: Fraction(0.1) if m == 1 + seed % 14 else base.v[m]
                         for m in range(1, 16)})
        worth, _ = to_common_denominator(g.v)
        assert max(map(abs, worth)) >= HALF
        empty += _assert_first_maximal(catalog, g)
        unscaled, verdict = core_mbc(base, catalog), core_mbc(g, catalog)
        if change == "scaled by 2^40" and not verdict.nonempty:
            assert verdict.collection is unscaled.collection
            assert verdict.efficiency == unscaled.efficiency * (1 << 40)
    assert empty >= 10


def test_core_mbc_catalog_too_wide_for_packed_fields():
    # balanced but not minimal: its numerators sum to about 2^41
    eps = Fraction(1, 1 << 40)
    wide = BalancedCollection(2, {1: 1 - eps, 2: 1 - eps, 3: eps})
    g = Game(2, {1: 1, 2: 1, 3: 1})
    verdict = core_mbc(g, MbcCatalog(2, "direct", [wide]))
    assert verdict.collection is wide
    assert verdict.efficiency == 2 - eps


def test_core_mbc_one_too_wide_collection_unpacks_the_catalog():
    # balanced but not minimal: denominator 2^40 makes lcd = 3 * 2^40, so the
    # index packs nothing and every collection is summed one by one
    eps = Fraction(1, 1 << 40)
    wide = BalancedCollection(4, {1: 1 - eps, 2: 1 - eps, 4: 1 - eps, 8: 1 - eps, 15: eps})
    kept = [b for b in enumerate_mbc(4).collections if b.coalitions not in ((1, 2, 4, 8), (15,))]
    catalog = MbcCatalog(4, "direct", kept + [wide])
    singletons = Game(4, {m: 100 if m.bit_count() == 1 else 0 for m in range(1, 16)})
    assert _assert_first_maximal(catalog, singletons)
    assert core_mbc(singletons, catalog).collection is wide
    assert catalog._scan[1] == 3 << 40 and catalog._scan[3] is None
    # the wide collection certifies 11 of these 30 empty cores
    wins = 0
    for seed in range(30):
        g = random_game(4, seed)
        assert _assert_first_maximal(catalog, g)
        wins += core_mbc(g, catalog).collection is wide
    assert 0 < wins < 30


@pytest.mark.parametrize("limit, packed", [(7_158_278, True), (7_158_279, False)])
def test_core_mbc_packed_bound_at_n5(limit, packed):
    # |t| <= limit * width with width = 5 * 60: the singleton partition of
    # a game worth +-limit everywhere reaches it, the packed fields' extremes
    catalog = enumerate_mbc(5)
    extremes = [Game(5, {m: sign * limit for m in range(1, 32)}) for sign in (1, -1)]
    gen = splitmix64(limit)
    mixed = []
    for seed in range(10):
        worths = {m: next(gen) % (2 * limit + 1) - limit for m in range(1, 32)}
        worths[1 + 3 * seed] = limit if seed % 2 else -limit
        mixed.append(Game(5, worths))
    empty = 0
    for g in extremes + mixed:
        assert max(map(abs, g.worths)) == limit
        empty += _assert_first_maximal(catalog, g)
        assert (limit * catalog._scan[2] < HALF) == packed
    assert 0 < empty < 12


def test_core_mbc_ties_across_denominators_keep_first_in_catalog_order():
    # with worths 0..4 about one draw in 250 ties its top efficiency across
    # two denominators, with the larger one first in catalog order
    catalog = enumerate_mbc(4)
    found = 0
    for seed in range(2100):
        g = random_game(4, seed, magnitude=4)
        v = [int(x) for x in g.v]
        effs = [Fraction(sum(map(mul, b.numerators, map(v.__getitem__, b.coalitions))),
                         b.denominator) for b in catalog.collections]
        top = max(effs)
        tied = [b.denominator for b, e in zip(catalog.collections, effs) if e == top]
        if tied[0] > min(tied) and top > v[-1]:
            assert _assert_first_maximal(catalog, g)
            found += 1
    assert found >= 5


@pytest.mark.parametrize("n", [4, 5])
def test_core_mbc_negative_worths(n):
    # every field of the packed scan falls below its bias
    catalog = enumerate_mbc(n)
    empty = 0
    for seed in range(12):
        base = random_game(n, seed)
        g = Game(n, {m: -1 - base.v[m] for m in range(1, 1 << n)})
        empty += _assert_first_maximal(catalog, g)
    assert 0 < empty < 12


def test_core_mbc_rebuilds_a_stale_index():
    catalog = enumerate_mbc(5)
    g = random_game(5, 3)
    for _ in range(3):
        verdict = core_mbc(g, catalog)
        assert not verdict.nonempty
        catalog.collections.remove(verdict.collection)
        assert _assert_first_maximal(catalog, g)


@pytest.mark.parametrize("n, pin", [(2, (1, 2, 3)), (3, (2, 6, 7)), (4, (6, 24, 15)),
                                    (5, (60, 300, 31))], ids=["n=2", "n=3", "n=4", "n=5"])
def test_core_mbc_scan_index(n, pin):
    # (lcd, width, coalitions packed) of core_mbc's index, lcd being the
    # lcm of the catalog's denominators
    catalog = enumerate_mbc(n)
    core_mbc(random_game(n, 0), catalog)
    _, lcd, width, _, masks, _ = catalog._scan
    assert (lcd, width, len(masks)) == pin
    assert width == n * lcd


def test_core_mbc_on_an_empty_catalog_defers_to_core_lp():
    empty = MbcCatalog(3, "direct", [])
    for seed in range(8):
        g = random_game(3, seed)
        via_cat, via_lp = core_mbc(g, empty), core_lp(g)
        assert (repr(via_cat), via_cat.pivots) == (repr(via_lp), via_lp.pivots)


def test_core_mbc_rejects_catalog_mismatch():
    with pytest.raises(ValueError):
        core_mbc(random_game(3, 0), enumerate_mbc(4))


def test_core_verdict_repr():
    hit = core_lp(Game(1, {1: 2}))
    miss = core_lp(random_game(3, 7))
    assert "nonempty" in repr(hit)
    assert "efficiency" in repr(miss)
