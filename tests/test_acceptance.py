"""Acceptance gate: every advertised number and equivalence, end to end.

Each test covers one acceptance item and prints a single summary line;
the numeric expectations are exact, the only tolerances anywhere are the
wall-clock bounds on the enumeration timings.
"""
import time
from functools import lru_cache
from itertools import combinations, combinations_with_replacement

from balanced_forge.balanced import (
    is_balanced,
    is_minimal_balanced,
    is_minimal_balanced_oracle,
)
from balanced_forge.core import binomial, coalitions_of, full_mask
from balanced_forge.counting import count_cumulative, count_spanning, count_total
from balanced_forge.decomposition import decompose, decompose_all
from balanced_forge.enumeration import (
    TABLE1,
    enumerate_mbc,
    enumerate_mbc_oracle,
    enumerate_minimally_uniform,
    enumerate_uniform,
    k_max,
    mbc_via_duality,
)
from balanced_forge.games import Game, core_lp, core_mbc, random_game, splitmix64
from balanced_forge.hypergraph import Hypergraph, is_minimally_regular, is_minimally_uniform

FIG3 = Hypergraph(7, [0b0001111, 0b1110001, 0b0111100, 0b1101100])


@lru_cache(maxsize=None)
def _direct(n):
    return enumerate_mbc(n)


def _report(num, label, detail):
    print("criterion %02d PASS %s (%s)" % (num, label, detail), flush=True)


def test_criterion_01_known_counts_within_time():
    times = {}
    for n in range(2, 7):
        t0 = time.monotonic()
        count = _direct(n).count
        times[n] = time.monotonic() - t0
        assert count == TABLE1[n], (n, count)
        bound = 1800.0 if n == 6 else 60.0
        assert times[n] < bound, (n, times[n])
    _report(
        1,
        "counts 2..6 reproduced",
        " ".join("n=%d:%.2fs" % (n, times[n]) for n in sorted(times)),
    )


def test_criterion_02_direct_equals_bruteforce():
    for n in range(2, 6):
        direct = _direct(n)
        oracle = enumerate_mbc_oracle(n)
        assert direct.coalition_sets() == oracle.coalition_sets(), n
        for a, b in zip(direct, oracle):
            assert a.weights == b.weights, (n, a.coalitions)
    _report(2, "direct route = brute force", "n=2..5 canonical set equality")


def test_criterion_03_duality_equals_direct():
    for n in range(2, 6):
        dual = mbc_via_duality(n, k_max(n))
        assert dual.coalition_sets() == _direct(n).coalition_sets(), n
    _report(3, "duality route = direct route", "n=2..5, k swept to the bound")


def test_criterion_04_small_count_example():
    assert count_cumulative(3, 2, 3) == 8
    assert count_spanning(2, 2, 3) == 1
    assert count_spanning(3, 2, 3) == 7
    assert len(enumerate_uniform(3, 2, 3, spanning=True)) == 7
    assert len(enumerate_uniform(2, 2, 3, spanning=True)) == 1
    minimal = enumerate_minimally_uniform(3, 2, 3)
    assert len(minimal) == 1
    assert minimal[0].edges == (0b011, 0b101, 0b110)
    _report(4, "three-edge pair-hypergraph numbers", "1 + 7 = 8, one minimal (triangle)")


def test_criterion_05_inversion_identity():
    checked = 0
    for n in range(7):
        for k in range(1, n + 1):
            for p in range(5):
                lhs = count_total(n, k, p)
                rhs = sum(binomial(n, i) * count_spanning(i, k, p) for i in range(n + 1))
                assert lhs == rhs, (n, k, p)
                checked += 1
    _report(5, "binomial inversion of spanning counts", "%d (n,k,p) triples" % checked)


def test_criterion_06_counts_match_enumeration():
    checked = 0
    for n in range(1, 6):
        for k in range(1, n + 1):
            for p in range(1, 4):
                want = len(enumerate_uniform(n, k, p, spanning=True))
                assert count_spanning(n, k, p) == want, (n, k, p)
                checked += 1
    _report(6, "closed form = exhaustive listing", "%d (n,k,p) triples" % checked)


def _proper_hypergraphs(n, p_cap):
    full = full_mask(n)
    nonempty = list(range(1, 1 << n))
    for p in range(1, p_cap + 1):
        for edges in combinations_with_replacement(nonempty, p):
            cover = 0
            for e in edges:
                cover |= e
            if cover == full:
                yield Hypergraph(n, edges)


def test_criterion_07_duality_equivalence_exhaustive():
    total = 0
    for n in range(1, 6):
        for h in _proper_hypergraphs(n, 4):
            total += 1
            d = h.dual()
            assert is_minimally_uniform(h) == is_minimally_regular(d), h.to_text()
            assert d.dual() == h.canonicalize(), h.to_text()
    _report(7, "minimal uniformity <-> minimal regularity of the dual", "%d proper hypergraphs" % total)


def test_criterion_08_decomposition_exists():
    total = 0
    for n in range(1, 7):
        for k in range(1, min(3, n) + 1):
            for p in range(1, 5):
                for h in enumerate_uniform(n, k, p, spanning=True):
                    decompose(h)
                    total += 1
    found = {frozenset(p.blocks) for p in decompose_all(FIG3)}
    assert frozenset({0b0100101, 0b1011010}) in found
    assert frozenset({0b0100010, 0b1011101}) in found
    _report(8, "minimally uniform partition always found", "%d inputs, 7-node example has both known partitions" % total)


def _criterion_09_games(n):
    """1000 seeded games, plus one with v(N) = n * 100 per block of four.

    Paying every player 100 meets every worth of random_game, so the
    raised games have nonempty cores and reach solve_square.
    """
    for seed in range(1000):
        g = random_game(n, seed)
        yield seed, g
        if seed % 4 == 3:
            worths = {m: g.v[m] for m in range(1, 1 << n)}
            worths[full_mask(n)] = n * 100
            yield seed, Game(n, worths)


def test_criterion_09_core_routes_agree():
    games = nonempty = 0
    for n in (2, 3, 4, 5):
        catalog = _direct(n)
        vn_mask = full_mask(n)
        for seed, g in _criterion_09_games(n):
            a = core_lp(g)
            b = core_mbc(g, catalog)
            assert a.nonempty == b.nonempty, (n, seed)
            vn = g.worth(vn_mask)
            if a.nonempty:
                x = a.payment
                assert b.payment == x, (n, seed)
                assert sum(x) == vn, (n, seed)
                for s in range(1, 1 << n):
                    assert sum(x[i] for i in range(n) if s >> i & 1) >= g.worth(s), (n, seed, s)
            else:
                for v in (a, b):
                    bc = v.collection
                    assert is_minimal_balanced(n, bc.coalitions), (n, seed)
                    eff = sum(bc.weights[s] * g.worth(s) for s in bc.coalitions)
                    assert eff == v.efficiency and eff > vn, (n, seed)
                assert a.efficiency == b.efficiency, (n, seed)
            games += 1
            nonempty += a.nonempty
    assert nonempty >= 1000
    _report(
        9,
        "LP core test = catalog core test",
        "%d games at n=2..5, %d nonempty, certificates revalidated exactly" % (games, nonempty),
    )


def test_criterion_10_minimality_criteria_agree():
    balanced = 0
    for n in (2, 3, 4):
        univ = coalitions_of(n)
        for size in range(1, len(univ) + 1):
            for combo in combinations(univ, size):
                if not is_balanced(n, combo):
                    continue
                balanced += 1
                assert is_minimal_balanced(n, combo) == is_minimal_balanced_oracle(n, combo), (n, combo)
    univ5 = coalitions_of(5)
    gen = splitmix64(5)
    minimal = 0
    for _ in range(10000):
        size = 1 + next(gen) % 7
        picked = []
        while len(picked) < size:
            s = univ5[next(gen) % 31]
            if s not in picked:
                picked.append(s)
        combo = tuple(sorted(picked))
        a = is_minimal_balanced(5, combo)
        assert a == is_minimal_balanced_oracle(5, combo), combo
        minimal += a
    _report(
        10,
        "independence test = subcollection oracle",
        "%d balanced collections exhaustively (n<=4), 10000 samples at n=5 (%d minimal)" % (balanced, minimal),
    )
