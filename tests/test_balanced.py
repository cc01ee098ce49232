from fractions import Fraction
from itertools import combinations

import pytest

from balanced_forge.balanced import (
    BalancedCollection,
    find_balancing_weights,
    is_balanced,
    is_minimal_balanced,
    is_minimal_balanced_oracle,
    parse_collection,
    from_regular_hypergraph,
    efficiency,
)
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
    with pytest.raises(ValueError):
        from_regular_hypergraph(Hypergraph(2, [1, 3]))  # not regular
    with pytest.raises(ValueError):
        from_regular_hypergraph(Hypergraph(2, [1, 1]))  # not spanning


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
