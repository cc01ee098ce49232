from fractions import Fraction
from operator import mul

import pytest

from balanced_forge.balanced import BalancedCollection, efficiency
from balanced_forge.core import to_common_denominator
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


def test_game_worths_become_fractions():
    g = Game(2, {1: "1/3", 2: 0.5, 3: 2})
    assert g.worth(1) == Fraction(1, 3)
    assert g.worth(2) == Fraction(1, 2)
    assert g.v[0] == 0


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


def test_random_game_frozen_worths():
    g = random_game(3, 42)
    assert [int(g.v[m]) for m in range(1, 8)] == [23, 63, 43, 5, 42, 59, 93]


def test_random_game_determinism_and_caps():
    assert random_game(4, 9) == random_game(4, 9)
    assert random_game(4, 9) != random_game(4, 10)
    with pytest.raises(ValueError):
        random_game(11, 0)
    with pytest.raises(ValueError):
        random_game(3, 0, magnitude=-1)
    flat = random_game(3, 5, magnitude=0)
    assert all(v == 0 for v in flat.v)


def test_core_single_player():
    verdict = core_lp(Game(1, {1: 5}))
    assert verdict.nonempty
    assert verdict.payment == (5,)


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
    ("one weight changed",
     "weights of player 1 in n=3; [{1,2}:1, {1,3}:1/2, {2,3}:1/2] do not sum to 1"),
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
    """Reference scan in Fraction arithmetic: the first largest efficiency."""
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


def test_core_mbc_rejects_catalog_mismatch():
    with pytest.raises(ValueError):
        core_mbc(random_game(3, 0), enumerate_mbc(4))


def test_core_verdict_repr():
    hit = core_lp(Game(1, {1: 2}))
    miss = core_lp(random_game(3, 7))
    assert "nonempty" in repr(hit)
    assert "efficiency" in repr(miss)
