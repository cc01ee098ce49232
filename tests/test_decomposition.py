import random
import re
from itertools import combinations, combinations_with_replacement

import pytest

from balanced_forge.decomposition import (
    IncompleteDecomposition,
    UniformPartition,
    decompose,
    decompose_all,
)
from balanced_forge.hypergraph import Hypergraph, is_minimally_uniform
from test_hypergraph import minimally_uniform_masks, small_uniform, subhypergraph

TRIANGLE = Hypergraph(3, [0b011, 0b101, 0b110])
FIG3 = Hypergraph(7, [0b0001111, 0b1110001, 0b0111100, 0b1101100])
TWO_TRIANGLES = Hypergraph(
    6, [0b000011, 0b000101, 0b000110, 0b011000, 0b101000, 0b110000]
)


def all_partitions(n):
    # every set partition of {1..n} as a tuple of bitmasks
    def rec(remaining):
        if remaining == 0:
            yield ()
            return
        low = remaining & -remaining
        rest = remaining ^ low
        s = 0
        while True:
            block = low | s
            for tail in rec(remaining ^ block):
                yield (block,) + tail
            if s == rest:
                break
            s = (s - rest) & rest

    return list(rec((1 << n) - 1))


def partition_oracle(h):
    # the partitions whose blocks all pass the definition's literal test,
    # in lexicographic order; blocks are decided without minimal_blocks,
    # which the search and the validating constructor share
    minimal = set(minimally_uniform_masks(h))
    return [UniformPartition._trusted(h, blocks) for blocks in sorted(all_partitions(h.n))
            if all(b in minimal for b in blocks)]


def test_triangle_is_its_own_block():
    parts = decompose_all(TRIANGLE)
    assert [p.blocks for p in parts] == [(0b111,)]
    assert parts[0].degrees == (2,)
    assert parts[0].size == 3


def test_single_edge_decomposes_into_singletons():
    h = Hypergraph(2, [0b11])
    part = decompose(h)
    assert part.blocks == (0b01, 0b10)
    assert part.degrees == (1, 1)
    assert part.block_nodes() == ((1,), (2,))


def test_seven_node_example_first_partition():
    part = decompose(FIG3)
    assert part.block_nodes() == ((1, 3, 6), (2, 4, 5, 7))
    assert part.degrees == (2, 2)
    assert part.size == 4


def test_seven_node_example_all_partitions():
    parts = decompose_all(FIG3)
    # the two partitions known by hand plus one more the search uncovers
    sets = [set(p.blocks) for p in parts]
    assert {0b0100101, 0b1011010} in sets
    assert {0b0100010, 0b1011101} in sets
    assert len(parts) == 3
    assert {p.blocks for p in parts} == {p.blocks for p in partition_oracle(FIG3)}


def test_two_triangles_single_block_only():
    # any aligned block sees edge sizes {2, 0} and any straddling block
    # a mix, so only the trivial partition leaves every block uniform
    parts = decompose_all(TWO_TRIANGLES)
    assert [p.blocks for p in parts] == [(0b111111,)]
    assert parts[0].degrees == (2,)
    assert {p.blocks for p in parts} == {p.blocks for p in partition_oracle(TWO_TRIANGLES)}


def test_matches_oracle_on_small_uniform_hypergraphs():
    for n in (3, 4):
        edges = [m for m in range(1, 1 << n) if m.bit_count() == 2]
        for p in (2, 3):
            for combo in combinations(edges, p):
                h = Hypergraph(n, combo)
                if not h.is_proper or h.uniformity() is None:
                    continue
                got = {q.blocks for q in decompose_all(h)}
                assert got == {q.blocks for q in partition_oracle(h)}
                if got:
                    assert decompose(h).blocks in got


def test_decompose_all_lists_the_literal_partitions_in_order():
    for h in small_uniform():
        want = [p.blocks for p in partition_oracle(h)]
        assert want and [p.blocks for p in decompose_all(h)] == want, h


def random_uniform(rng, n, k, p):
    # p random k-subsets of n nodes, drawn until they cover every node
    nodes = range(n)
    while True:
        edges = sorted(sum(1 << x for x in rng.sample(nodes, k)) for _ in range(p))
        h = Hypergraph(n, edges)
        if h.is_proper:
            return h


def test_search_partitions_equal_the_validated_ones():
    # the search builds partitions without the constructor's checks; the
    # constructor, given the same blocks, must accept them and agree on
    # blocks, degrees and size
    rng = random.Random("decompose-sample")
    shapes = [(n, k, p) for n in (6, 7, 8) for k in (2, 3, 4) for p in (3, 4, 5) if k * p >= n]
    for _ in range(4):
        for n, k, p in shapes:
            h = random_uniform(rng, n, k, p)
            parts = decompose_all(h)
            assert parts and decompose(h) == parts[0]
            for part in [decompose(h)] + parts:
                checked = UniformPartition(h, part.blocks)
                assert (part.n, part.blocks, part.degrees, part.size) == (
                    checked.n, checked.blocks, checked.degrees, checked.size)
                assert type(part.blocks) is tuple and part.size == p


def test_duplicate_edges_force_singleton_blocks():
    # identical edges leave every induced part uniform, so only
    # singletons are minimally uniform
    h = Hypergraph(4, [0b1111, 0b1111])
    parts = decompose_all(h)
    assert [p.blocks for p in parts] == [(0b0001, 0b0010, 0b0100, 0b1000)]
    assert parts[0].degrees == (1, 1, 1, 1)


def test_blocks_may_carry_different_degrees():
    # edges {2,3,4,5},{1,3,4,5},{1,2,4,5},{1,2,3,5}: the traces on
    # {1,2,3,4} are its four 3-subsets, the traces on {5} all size 1
    h = Hypergraph(5, [0b11110, 0b11101, 0b11011, 0b10111])
    degree_sets = {
        frozenset(zip(p.block_nodes(), p.degrees)) for p in decompose_all(h)
    }
    assert frozenset({((1, 2, 3, 4), 3), ((5,), 1)}) in degree_sets


def test_rejects_nonuniform_input():
    with pytest.raises(ValueError):
        decompose(Hypergraph(3, [0b011, 0b111]))


def test_rejects_nonspanning_input():
    with pytest.raises(ValueError):
        decompose(Hypergraph(3, [0b011]))


def test_partition_constructor_validation():
    with pytest.raises(ValueError):
        UniformPartition(TRIANGLE, [0b111, 0b001])
    with pytest.raises(ValueError):
        UniformPartition(TRIANGLE, [0b011])
    with pytest.raises(ValueError):
        UniformPartition(TRIANGLE, [0b011, 0b100])
    with pytest.raises(ValueError):
        UniformPartition(TRIANGLE, [0b111, 0])


def test_partition_rejects_blocks_that_are_not_node_masks():
    # named before any block is sorted or decided: a negative mask would
    # hang format_coalition, a float the sort key, and True would be {1}
    for blocks, bad in (
        ([-1], "-1"),
        ([7.0], "7.0"),
        ([True, 6], "True"),
        ([0b1111], "15"),
        ([0b111, 0b1000], "8"),
        ([0b111, 0], "0"),
    ):
        with pytest.raises(ValueError, match=re.escape("block %s is not a node mask in 1..7" % bad)):
            UniformPartition(TRIANGLE, blocks)


def test_partition_rejects_uniform_block_that_is_not_minimal():
    # FIG3 is 4-uniform on all 7 nodes, but uniform again on {1,3,6}
    assert FIG3.uniformity() == 4
    message = "block {1,2,3,4,5,6,7} does not induce a minimally uniform subhypergraph"
    with pytest.raises(ValueError, match=re.escape(message)):
        UniformPartition(FIG3, [0b1111111])
    with pytest.raises(ValueError, match=re.escape("block {1,2} does not induce")):
        UniformPartition(Hypergraph(2, [3, 3, 3]), [0b11])


def test_partition_equality_and_repr():
    a = decompose(TRIANGLE)
    b = UniformPartition(TRIANGLE, [0b111])
    assert a == b
    assert hash(a) == hash(b)
    assert repr(b) == "UniformPartition({1,2,3})"


def test_blocks_sorted_by_lowest_member():
    part = UniformPartition(FIG3, [0b1011010, 0b0100101])
    assert part.blocks == (0b0100101, 0b1011010)


def test_decompose_all_cap():
    n = 11
    edges = [0b11 << i for i in range(0, n - 1, 2)] + [0b11 << (n - 2)]
    h = Hypergraph(n, edges)
    with pytest.raises(ValueError):
        decompose_all(h)
    assert decompose(h) is not None


def test_every_uniform_case_decomposes():
    # existence holds on an exhaustive small sweep; exercised through the
    # same public path the error would surface from
    for n in (2, 3):
        for k in (1, 2):
            if k > n:
                continue
            edges = [m for m in range(1, 1 << n) if m.bit_count() == k]
            for p in (1, 2, 3):
                for combo in combinations_with_replacement(edges, p):
                    h = Hypergraph(n, combo)
                    if not h.is_proper:
                        continue
                    part = decompose(h)
                    for b, d in zip(part.blocks, part.degrees):
                        nodes = [x + 1 for x in range(n) if b >> x & 1]
                        sub, _ = subhypergraph(h, nodes)
                        assert is_minimally_uniform(sub)
                        assert sub.uniformity() == d
