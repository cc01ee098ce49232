import random
from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import combinations
from operator import or_

import pytest

from balanced_forge import balanced, enumeration
from balanced_forge.balanced import (
    BalancedCollection,
    _balancing_lp,
    find_balancing_weights,
    is_balanced,
    is_minimal_balanced,
    is_minimal_balanced_oracle,
    parse_collection,
    from_regular_hypergraph,
    efficiency,
)
from balanced_forge._simplex import simplex_min
from balanced_forge.enumeration import enumerate_mbc, enumerate_mbc_oracle, enumerate_proper
from balanced_forge.hypergraph import Hypergraph
from balanced_forge.games import Game
from test_hypergraph import subhypergraph

F = Fraction


def test_partitions_are_balanced_with_unit_weights():
    w = find_balancing_weights(3, [1, 2, 4])
    assert w == {1: F(1), 2: F(1), 4: F(1)}
    w = find_balancing_weights(3, [3, 4])
    assert w == {3: F(1), 4: F(1)}
    w = find_balancing_weights(1, [1])
    assert w == {1: F(1)}


def test_pair_cover_weights():
    w = find_balancing_weights(3, [3, 5, 6])
    assert w == {3: F(1, 2), 5: F(1, 2), 6: F(1, 2)}


def test_unbalanced_and_uncovered():
    # {1,2},{2,3}: player 2 forces the sum over players 1 and 3 too high
    assert find_balancing_weights(3, [3, 6]) is None
    # player 3 in no coalition
    assert find_balancing_weights(3, [1, 2, 3]) is None
    assert not is_balanced(3, [3, 6])


def test_balanced_with_slack_weights():
    # all seven coalitions of three players: balanced but far from minimal
    all7 = list(range(1, 8))
    w = find_balancing_weights(3, all7)
    assert w is not None
    for i in range(3):
        assert sum(w[s] for s in all7 if s >> i & 1) == 1
    assert is_balanced(3, all7)
    assert not is_minimal_balanced(3, all7)


def test_every_partition_balanced_exhaustive():
    def parts(ns):
        if not ns:
            yield []
            return
        first, rest = ns[0], ns[1:]
        for p in parts(rest):
            for i in range(len(p)):
                yield p[:i] + [p[i] | first] + p[i + 1 :]
            yield [first] + p

    for n in range(1, 7):
        for blocks in parts([1 << i for i in range(n)]):
            w = find_balancing_weights(n, blocks)
            assert w == {b: F(1) for b in blocks}


def test_minimal_balanced_matches_oracle_exhaustive_small():
    for n in (2, 3):
        coalitions = list(range(1, 1 << n))
        for size in range(1, len(coalitions) + 1):
            for sub in combinations(coalitions, size):
                if size > n + 1:
                    continue
                assert is_minimal_balanced(n, sub) == is_minimal_balanced_oracle(n, sub), sub


def _pair_rule_sweep(monkeypatch, n, max_size):
    """find_balancing_weights on every subcollection of size <= max_size,
    with the LP stubbed out.

    Returns the number that leave a player uncovered, the covering ones
    the pair rule rejects (None with no LP), and the ones that reach the
    LP. The stub's None would be cached as every reached collection's
    result, so the sweep runs on a cache of its own.
    """
    reached = []
    monkeypatch.setattr(balanced, "_balanced_cache", {})
    monkeypatch.setattr(balanced, "_balancing_lp", lambda n, masks: reached.append(masks))
    full = (1 << n) - 1
    uncovered = 0
    rejected = []
    for size in range(1, max_size + 1):
        for combo in combinations(range(1, full + 1), size):
            before = len(reached)
            find_balancing_weights(n, combo)
            if len(reached) == before:
                if reduce(or_, combo) == full:
                    rejected.append(combo)
                else:
                    uncovered += 1
    return uncovered, rejected, reached


def test_pair_rule_rejects_only_what_the_lp_rejects(monkeypatch):
    # every subcollection of every size at n <= 4
    rejected = []
    for n in range(1, 5):
        _, pair_rejected, _ = _pair_rule_sweep(monkeypatch, n, (1 << n) - 1)
        for masks in pair_rejected:
            assert _balancing_lp(n, masks) is None, (n, masks)
        rejected.append(len(pair_rejected))
    assert rejected == [0, 2, 66, 13046]


@pytest.mark.parametrize(
    "n, uncovered, rejected, to_lp, balanced_count",
    [(4, 354, 1468, 118, 118), (5, 23590, 176420, 6357, 5337)],
)
def test_pair_rule_counts_at_sizes_up_to_n(monkeypatch, n, uncovered, rejected, to_lp, balanced_count):
    # every collection of at most n coalitions, the size cap on a minimal
    # balanced collection; the oracle route decides only those with no
    # balanced proper subcollection (test_oracle_join_decides_...)
    got_uncovered, got_rejected, reached = _pair_rule_sweep(monkeypatch, n, n)
    assert (got_uncovered, len(got_rejected), len(reached)) == (uncovered, rejected, to_lp)
    assert sum(_balancing_lp(n, masks) is not None for masks in reached) == balanced_count


def test_oracle_route_validates_and_solves_each_collection_once(monkeypatch):
    # the levelwise search decides 850 candidates, one cache entry and one
    # validation each, its is_balanced call: its proper subcollections are
    # read unvalidated, and a kept collection is the cached one the LP
    # built. Only the 42 minimal balanced ones reach an LP, each once
    lps, checks = [], []

    def counting_lp(*args, **kwargs):
        lps.append(args)
        return simplex_min(*args, **kwargs)

    def counting_check(n, coalitions):
        checks.append(coalitions)
        return checked_masks(n, coalitions)

    checked_masks = balanced._checked_masks
    monkeypatch.setattr(balanced, "_balanced_cache", {})
    monkeypatch.setattr(balanced, "simplex_min", counting_lp)
    monkeypatch.setattr(balanced, "_checked_masks", counting_check)
    assert enumerate_mbc_oracle(4).count == 42
    assert (len(lps), len(checks)) == (42, 850)
    assert len(balanced._balanced_cache) == 850


def test_oracle_cache_holds_valid_collections(monkeypatch):
    # the cache's collections are built from LP vertices unvalidated, so
    # each is rebuilt here through the validating constructor
    monkeypatch.setattr(balanced, "_balanced_cache", {})
    catalog = enumerate_mbc_oracle(4)
    solved = {key: bc for key, bc in balanced._balanced_cache.items() if bc is not None}
    assert len(solved) == 42
    for (n, masks), bc in solved.items():
        assert bc.coalitions == masks
        assert bc == BalancedCollection(n, bc.weights)
    assert all(bc is solved[4, bc.coalitions] for bc in catalog.collections)


def test_oracle_join_decides_the_collections_without_balanced_subcollections(monkeypatch):
    # the levelwise join neither drops nor adds a candidate: by brute force
    # at n <= 4, the oracle decides, level by level in lexicographic order,
    # every collection of at most n coalitions with no balanced proper
    # subcollection, and nothing else. Criterion 02 pins the n = 5 counts
    decided = []
    oracle = enumeration.is_minimal_balanced_oracle

    def recording_oracle(n, combo):
        decided.append(combo)
        return oracle(n, combo)

    monkeypatch.setattr(enumeration, "is_minimal_balanced_oracle", recording_oracle)
    for n in range(2, 5):
        combos = [c for size in range(1, n + 1) for c in combinations(range(1, 1 << n), size)]
        balanced_sets = {c for c in combos if is_balanced(n, c)}
        want = [
            c for c in combos
            if not any(
                sub in balanced_sets for size in range(1, len(c)) for sub in combinations(c, size)
            )
        ]
        decided.clear()
        catalog = enumerate_mbc_oracle(n)
        assert decided == want, n
        candidates = Counter(map(len, want))
        kept = Counter(len(b.coalitions) for b in catalog.collections)
        assert catalog.diagnostics["candidates"] == [candidates[s] for s in range(1, n + 1)]
        assert catalog.diagnostics["kept"] == [kept[s] for s in range(1, n + 1)]


def test_minimality_test_validates_each_collection_once(monkeypatch):
    # is_minimal_balanced checks its masks itself and then reads the cached
    # decision directly, not through a second validation
    collections = [bc.coalitions for bc in enumerate_mbc(4).collections]
    checks = []

    def counting_check(n, coalitions):
        checks.append(coalitions)
        return checked_masks(n, coalitions)

    checked_masks = balanced._checked_masks
    monkeypatch.setattr(balanced, "_balanced_cache", {})
    monkeypatch.setattr(balanced, "_checked_masks", counting_check)
    assert all(is_minimal_balanced(4, masks) for masks in collections)
    assert (len(collections), len(checks)) == (42, 42)
    assert len(balanced._balanced_cache) == 42


def test_cached_weights_are_handed_out_as_fresh_dicts(monkeypatch):
    monkeypatch.setattr(balanced, "_balanced_cache", {})
    w = find_balancing_weights(3, [3, 5, 6])
    w[3] = F(7)
    del w[5]
    assert find_balancing_weights(3, (6, 5, 3)) == {3: F(1, 2), 5: F(1, 2), 6: F(1, 2)}
    assert find_balancing_weights(3, [3, 5, 6]) is not find_balancing_weights(3, [3, 5, 6])
    assert list(balanced._balanced_cache) == [(3, (3, 5, 6))]
    # the oracle catalog hands out the cached collections themselves; a
    # caller that mutates one's weights view leaves the decision intact
    catalog = enumerate_mbc_oracle(3)
    [bc] = [c for c in catalog.collections if c.coalitions == (3, 5, 6)]
    assert bc is balanced._balanced_cache[3, (3, 5, 6)]
    bc.weights[3] = F(7)
    del bc.weights[5]
    assert find_balancing_weights(3, [3, 5, 6]) == {3: F(1, 2), 5: F(1, 2), 6: F(1, 2)}


def test_known_mbcs_n3():
    mbcs = [(7,), (1, 2, 4), (1, 6), (2, 5), (4, 3), (3, 5, 6)]
    for masks in mbcs:
        assert is_minimal_balanced(3, masks)
    assert not is_minimal_balanced(3, (1, 2, 4, 7))
    assert not is_minimal_balanced(3, (3, 6))


def test_collection_validation():
    bc = BalancedCollection(3, {3: F(1, 2), 5: F(1, 2), 6: F(1, 2)})
    assert bc.coalitions == (3, 5, 6)
    assert bc.weights[3] == F(1, 2)
    with pytest.raises(ValueError, match="player 2 weight sum is 1/2, expected 1"):
        BalancedCollection(3, {3: F(1, 2), 5: F(1, 2)})   # sums off
    with pytest.raises(ValueError, match="player 3 weight sum is 7/6, expected 1"):
        BalancedCollection(3, {3: F(1, 2), 5: F(1, 2), 6: F(1, 2), 4: F(1, 6)})
    with pytest.raises(ValueError):
        BalancedCollection(3, {3: F(0), 5: F(1), 6: F(1)})  # nonpositive weight
    with pytest.raises(ValueError):
        BalancedCollection(3, {0: F(1)})
    with pytest.raises(ValueError):
        BalancedCollection(2, {5: F(1)})
    # a coalition is an int bitmask: no float, string or bool is coerced
    for bad in ([1.9, 2, 4], ["1", 2, 4], [True, 2, 4], [1, 2, 4.0]):
        with pytest.raises(ValueError, match="is not an int bitmask"):
            find_balancing_weights(3, bad)
        with pytest.raises(ValueError, match="is not an int bitmask"):
            is_balanced(3, bad)
    with pytest.raises(ValueError, match="is not an int bitmask"):
        BalancedCollection(2, {1.5: 1, 2: 1})
    with pytest.raises(ValueError, match="is not an int bitmask"):
        BalancedCollection(1, {True: 1})
    # the first nonpositive weight is reported before any player sum
    with pytest.raises(ValueError, match=r"weight of \{1,3\} must be positive, got -1/2"):
        BalancedCollection(3, {3: F(1, 2), 5: F(-1, 2), 6: F(1, 2), 7: F(1)})


def test_collection_from_pairs_rejects_a_repeated_coalition():
    pairs = [(6, F(1, 2)), (3, F(1, 2)), (5, F(1, 2))]
    assert BalancedCollection(3, pairs) == BalancedCollection(3, dict(pairs))
    with pytest.raises(ValueError, match=r"duplicate coalition \{1,2,3\}"):
        BalancedCollection(3, [(7, F(1)), (7, F(1))])
    with pytest.raises(ValueError, match=r"duplicate coalition \{1,2\}"):
        parse_collection("n=2; [{1,2}:1, {1, 2}:1]")


def test_collection_text_round_trip():
    bc = BalancedCollection(3, {3: F(1, 2), 5: F(1, 2), 6: F(1, 2)})
    text = bc.to_text()
    assert text == "n=3; [{1,2}:1/2, {1,3}:1/2, {2,3}:1/2]"
    assert parse_collection(text) == bc
    unit = BalancedCollection(2, {1: F(1), 2: F(1)})
    assert parse_collection(unit.to_text()) == unit
    # each weight is printed reduced on its own, not over the common denominator
    mixed = BalancedCollection(3, {1: F(1, 2), 2: F(1, 2), 3: F(1, 2), 4: F(1)})
    assert (mixed.numerators, mixed.denominator) == ((1, 1, 1, 2), 2)
    assert mixed.to_text() == "n=3; [{1}:1/2, {2}:1/2, {1,2}:1/2, {3}:1]"
    assert parse_collection(mixed.to_text()) == mixed
    with pytest.raises(ValueError):
        parse_collection("n=2; [{1}:1/2, {2}:1]")
    with pytest.raises(ValueError):
        parse_collection("[{1}:1]")


def test_collection_equality_includes_weights():
    a = BalancedCollection(3, {3: F(1, 2), 5: F(1, 2), 6: F(1, 2)})
    b = BalancedCollection(3, {3: F(1, 2), 5: F(1, 2), 6: F(1, 2)})
    assert a == b and hash(a) == hash(b)
    assert BalancedCollection._trusted(3, (3, 5, 6), (1, 1, 1), 2) == a
    assert BalancedCollection._trusted(3, (3, 5, 6), (2, 1, 1), 2) != a


def test_weights_map_is_built_on_first_read_and_kept():
    bc = BalancedCollection._trusted(3, (3, 5, 6), (1, 1, 1), 2)
    assert not hasattr(bc, "_weights")
    w = bc.weights
    assert w == {3: F(1, 2), 5: F(1, 2), 6: F(1, 2)}
    assert bc.weights is w


def test_from_regular_hypergraph():
    tri = Hypergraph(3, [3, 5, 6])
    bc = from_regular_hypergraph(tri)
    assert bc.n == 3
    assert bc.weights == {3: F(1, 2), 5: F(1, 2), 6: F(1, 2)}
    # multiplicities fold into the weight numerators
    h = Hypergraph(2, [3, 3])
    bc = from_regular_hypergraph(h)
    assert bc.coalitions == (3,) and bc.weights[3] == F(1)
    with pytest.raises(ValueError, match="not regular"):
        from_regular_hypergraph(Hypergraph(2, [1, 3]))
    # not spanning, edgeless, and an empty edge in an irregular H: an
    # improper input is named before an irregular one
    for edges in ([1, 1], [], [0, 1, 3]):
        with pytest.raises(ValueError, match="must be proper"):
            from_regular_hypergraph(Hypergraph(2, edges))


def _weights_by_degrees(h):
    """Edge multiplicity over the common degree, from degrees() and a Counter."""
    k = h.degrees()[0]
    return {s: F(c, k) for s, c in Counter(h.edges).items()}


@pytest.mark.parametrize("n, regular", [(1, 4), (2, 8), (3, 23), (4, 91)])
def test_from_regular_hypergraph_matches_the_degree_reference(n, regular):
    seen = 0
    for i, h in enumerate(enumerate_proper(n, 4)):
        # the edge order must not matter, so half the inputs come reversed
        if i % 2:
            h = Hypergraph(n, h.edges[::-1])
        if len(set(h.degrees())) > 1:
            with pytest.raises(ValueError, match="not regular"):
                from_regular_hypergraph(h)
            continue
        seen += 1
        bc = from_regular_hypergraph(h)
        # the validating constructor puts the weights over their lcm
        assert bc == BalancedCollection(n, _weights_by_degrees(h)), h
    assert seen == regular


def test_from_regular_hypergraph_past_eight_players():
    # masks of 256 and more read their players through players_of
    for h in (Hypergraph(9, [511, 15, 496]), Hypergraph(9, [511, 511, 15, 496]),
              Hypergraph(10, [0b1100000000, 0b0011111111, 1023, 1023])):
        assert from_regular_hypergraph(h) == BalancedCollection(h.n, _weights_by_degrees(h))
    assert from_regular_hypergraph(Hypergraph(9, [496, 511, 15])).weights == {
        15: F(1, 2), 496: F(1, 2), 511: F(1, 2)}
    with pytest.raises(ValueError, match="not regular"):
        from_regular_hypergraph(Hypergraph(9, [511, 256, 255, 1]))
    with pytest.raises(ValueError, match="must be proper"):
        from_regular_hypergraph(Hypergraph(10, [511, 511]))


def test_to_regular_hypergraph_inverts():
    # coalition S taken numerator(S) times is a regular hypergraph whose
    # conversion gives the collection back
    bc = BalancedCollection(3, {3: F(1, 2), 5: F(1, 2), 6: F(1, 2)})
    assert (bc.numerators, bc.denominator) == ((1, 1, 1), 2)
    h = Hypergraph(3, [3, 5, 6])
    assert h.regularity() == 2
    assert from_regular_hypergraph(h) == bc
    # unit-weight partition becomes a 1-regular hypergraph
    part = BalancedCollection(4, {3: F(1), 12: F(1)})
    h = Hypergraph(4, [3, 12])
    assert h.regularity() == 1
    assert from_regular_hypergraph(h) == part
    # a weight of 2/3 is two copies of its coalition at regularity 3
    b = BalancedCollection(2, {1: F(1, 3), 2: F(1, 3), 3: F(2, 3)})
    assert from_regular_hypergraph(Hypergraph(2, [1, 2, 3, 3])) == b


def test_fig3_block_dual_is_balanced():
    fig = Hypergraph(7, [0b0001111, 0b1110001, 0b0111100, 0b1101100])
    block, _ = subhypergraph(fig, [1, 3, 6])
    bc = from_regular_hypergraph(block.dual())
    assert bc.n == 4
    assert is_minimal_balanced(bc.n, bc.coalitions)


def test_efficiency():
    g = Game(3, {1: 0, 2: 0, 4: 0, 3: 1, 5: 1, 6: 1, 7: 1})
    pairs = BalancedCollection(3, {3: F(1, 2), 5: F(1, 2), 6: F(1, 2)})
    assert efficiency(pairs, g) == F(3, 2)
    grand = BalancedCollection(3, {7: F(1)})
    assert efficiency(grand, g) == 1
    # a partition against an additive game returns v(N)
    w = [3, 1, 4]
    add = Game(3, {m: sum(w[i] for i in range(3) if m >> i & 1) for m in range(1, 8)})
    part = BalancedCollection(3, {1: F(1), 6: F(1)})
    assert efficiency(part, add) == 8
    # against sum(weight * worth) in Fractions, on integral, fractional
    # and negative worths
    rng = random.Random(4)
    catalog = enumerate_mbc(4).collections
    for trial in range(30):
        den = 1 if trial % 3 == 0 else rng.randint(2, 40)
        g = Game(4, {m: F(rng.randint(-60, 60), den) for m in range(1, 16)})
        for bc in catalog:
            want = sum(bc.weights[s] * g.v[s] for s in bc.coalitions)
            got = efficiency(bc, g)
            assert got == want and type(got) is F
