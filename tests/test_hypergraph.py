import json
import random
from collections import Counter
from itertools import product

import pytest

from balanced_forge.enumeration import enumerate_proper, enumerate_uniform
from balanced_forge.hypergraph import (
    Hypergraph,
    minimal_blocks,
    minimally_uniform_on,
    parse_hypergraph,
    hypergraph_from_json,
    is_minimally_uniform,
    is_minimally_regular,
)

TRIANGLE = Hypergraph(3, [0b011, 0b101, 0b110])
# 7 nodes, 4 edges of size 4, the running non-unique-partition instance
FIG3 = Hypergraph(7, [0b0001111, 0b1110001, 0b0111100, 0b1101100])


def subhypergraph(h, nodes):
    """The induced subhypergraph of the definition, on a nonempty node subset.

    Every edge is intersected with the subset and kept even when the
    intersection is empty, so the size is preserved. Nodes are relabeled
    to 1..|A| in ascending order; returns (hypergraph, mapping) with
    mapping[old_id] = new_id.
    """
    ids = sorted(set(nodes))
    if not ids:
        raise ValueError("node subset must be nonempty")
    if ids[0] < 1 or ids[-1] > h.n:
        raise ValueError("node subset %r not within 1..%d" % (ids, h.n))
    mapping = {x: i + 1 for i, x in enumerate(ids)}
    out = []
    for e in h.edges:
        sub = 0
        for x in ids:
            if e >> (x - 1) & 1:
                sub |= 1 << (mapping[x] - 1)
        out.append(sub)
    return Hypergraph(len(ids), out), mapping


def test_construction_and_validation():
    h = Hypergraph(2, [3, 3, 3])
    assert h.n == 2
    assert h.size == 3
    assert h.edges == (3, 3, 3)
    with pytest.raises(ValueError):
        Hypergraph(2, [4])
    with pytest.raises(ValueError):
        Hypergraph(0, [])
    # an edge is an int bitmask, never coerced
    for edge in (1.9, "6", True):
        with pytest.raises(ValueError, match="not an int bitmask"):
            Hypergraph(3, [1, edge])


def test_size_counts_multiplicity():
    assert TRIANGLE.size == 3
    assert Hypergraph(1, [1, 1]).size == 2
    assert Hypergraph(3, []).size == 0


def test_is_proper():
    assert TRIANGLE.is_proper
    assert not Hypergraph(3, [3]).is_proper          # node 3 uncovered
    assert not Hypergraph(2, [3, 0]).is_proper       # empty edge
    assert not Hypergraph(3, []).is_proper


def test_degree():
    assert TRIANGLE.degrees() == [2, 2, 2]
    assert Hypergraph(2, [3, 3, 3]).degrees() == [3, 3]
    assert Hypergraph(3, [1, 5, 0]).degrees() == [2, 0, 1]
    for n in (1, 4, 7):
        assert Hypergraph(n, [(1 << n) - 1]).degrees() == [1] * n


def test_degrees_equal_degree_of_each_node():
    rng = random.Random(8)
    for _ in range(400):
        n = rng.randint(1, 8)
        edges = [rng.randrange(1 << n) for _ in range(rng.randint(0, 6))]
        edges += rng.choices(edges, k=rng.randint(0, 3)) if edges else []
        edges += [0] * rng.randint(0, 2)
        h = Hypergraph(n, edges)
        # node x's degree, counted edge by edge
        assert h.degrees() == [sum(e >> x & 1 for e in edges) for x in range(n)], h


def test_regularity():
    assert TRIANGLE.regularity() == 2
    assert Hypergraph(2, [1, 3]).regularity() is None
    assert Hypergraph(1, [1]).regularity() == 1
    assert Hypergraph(3, []).regularity() is None
    assert Hypergraph(2, [0, 0]).regularity() == 0


def test_uniformity():
    assert TRIANGLE.uniformity() == 2
    assert FIG3.uniformity() == 4
    assert Hypergraph(2, [1, 3]).uniformity() is None
    assert Hypergraph(3, []).uniformity() is None
    assert Hypergraph(2, [0, 0]).uniformity() == 0


def test_dual_examples():
    d = TRIANGLE.dual()
    assert d.n == 3 and d.edges == (0b011, 0b101, 0b110)
    d = Hypergraph(2, [3, 3, 3]).dual()
    assert d.n == 3 and d.edges == (7, 7)
    for n in (1, 3, 5):
        d = Hypergraph(n, [(1 << n) - 1]).dual()
        assert d.n == 1 and d.edges == tuple([1] * n)


def test_dual_requires_proper():
    with pytest.raises(ValueError):
        Hypergraph(3, [3]).dual()
    with pytest.raises(ValueError):
        Hypergraph(2, [3, 0]).dual()


def test_dual_node_count_bound():
    # the dual has one node per edge, so at most MAX_PLAYERS = 20 edges
    assert Hypergraph(2, [3] * 20).dual() == Hypergraph(20, [(1 << 20) - 1] * 2)
    with pytest.raises(ValueError, match="player count 21 outside"):
        Hypergraph(2, [3] * 21).dual()
    # not spanning, so refused before the bound
    with pytest.raises(ValueError, match="proper"):
        Hypergraph(2, [1] * 21).dual()


def test_dual_involution_small():
    # dual of dual gives the original back, edges in original order
    for h in (TRIANGLE, FIG3, Hypergraph(2, [3, 3, 3]), Hypergraph(4, [15, 3, 12])):
        assert h.dual().dual() == h


def test_subhypergraph_keeps_empty_intersections():
    sub, mapping = subhypergraph(FIG3, [2, 6])
    assert sub.n == 2
    assert sub.edges == (0b01, 0b10, 0b10, 0b10)
    assert mapping == {2: 1, 6: 2}
    sub, mapping = subhypergraph(FIG3, [1, 3, 6])
    assert sub.edges == (0b011, 0b101, 0b110, 0b110)
    full, mapping = subhypergraph(TRIANGLE, [1, 2, 3])
    assert full == TRIANGLE
    assert mapping == {1: 1, 2: 2, 3: 3}
    sub, _ = subhypergraph(Hypergraph(3, [3, 5]), [3])
    assert sub.edges == (0, 1)
    with pytest.raises(ValueError):
        subhypergraph(FIG3, [])
    with pytest.raises(ValueError):
        subhypergraph(FIG3, [8])


def test_is_minimally_uniform():
    assert is_minimally_uniform(TRIANGLE)
    assert not is_minimally_uniform(Hypergraph(2, [3, 3, 3]))
    block, _ = subhypergraph(FIG3, [2, 6])
    assert is_minimally_uniform(block)
    block, _ = subhypergraph(FIG3, [1, 3, 6])
    assert is_minimally_uniform(block)
    assert not is_minimally_uniform(Hypergraph(2, [1, 3]))


def test_is_minimally_uniform_matches_the_definition():
    # the literal test on induced subhypergraphs: uniform on N, and on no
    # other nonempty node subset
    for n in range(1, 5):
        for h in enumerate_proper(n, 4):
            literal = all(
                (subhypergraph(h, [x + 1 for x in range(n) if a >> x & 1])[0].uniformity()
                 is not None) == (a == (1 << n) - 1)
                for a in range(1, 1 << n)
            )
            assert is_minimally_uniform(h) == literal, h


def small_uniform():
    # every spanning k-uniform multiset hypergraph with n <= 5, k <= 3 and
    # at most 4 edges: 1,145 of them
    for n in range(1, 6):
        for k in range(1, min(3, n) + 1):
            for p in range(1, 5):
                yield from enumerate_uniform(n, k, p, True)


def uniform_masks(h):
    # the nonempty node masks whose induced subhypergraph is uniform, ascending
    return [a for a in range(1, 1 << h.n)
            if subhypergraph(h, [x + 1 for x in range(h.n) if a >> x & 1])[0].uniformity()
            is not None]


def minimally_uniform_masks(h):
    # the literal block test: uniform, and no nonempty proper part is
    uniform = uniform_masks(h)
    return [a for a in uniform if not any(t != a and t & a == t for t in uniform)]


def test_minimal_blocks_match_the_definition():
    for h in small_uniform():
        minimal = minimally_uniform_masks(h)
        for nodes in range(1, 1 << h.n):
            low = nodes & -nodes
            want = [a for a in minimal if a & nodes == a and a & low]
            assert list(minimal_blocks(h.edges, nodes)) == want, (h, nodes)


def test_minimal_blocks_rejects_a_negative_mask():
    # the scan t = (t - rest) & rest never reaches a negative rest
    with pytest.raises(ValueError, match="negative node mask -1"):
        list(minimal_blocks([1, 2], -1))


def test_minimal_blocks_refuses_the_empty_node_mask():
    # the empty set has no lowest node; edgeless input is refused too,
    # before minimally_uniform_on decides uniformity
    for edges in ([1, 2], []):
        with pytest.raises(ValueError, match="^empty node mask"):
            minimal_blocks(edges, 0)
        for nodes, why in ((0, "empty node mask"), (-1, "negative node mask -1")):
            with pytest.raises(ValueError, match="^" + why):
                minimally_uniform_on(edges, nodes)


def test_uniform_restrictions_are_closed_under_differences():
    for h in small_uniform():
        uniform = set(uniform_masks(h))
        for s in uniform:
            for t in uniform:
                if t != s and t & s == t:
                    assert s ^ t in uniform, (h, s, t)


def test_is_minimally_regular():
    assert is_minimally_regular(TRIANGLE)
    assert not is_minimally_regular(Hypergraph(1, [1, 1]))
    block, _ = subhypergraph(FIG3, [1, 3, 6])
    assert is_minimally_regular(block.dual())
    assert not is_minimally_regular(Hypergraph(2, [1, 3]))


def minimally_regular_by_degrees(h):
    # the literal scan: the degree of every node, for every proper
    # sub-multiset of the edges
    if h.regularity() is None:
        return False
    counted = sorted(Counter(h.edges).items())
    total = len(h.edges)
    for mults in product(*[range(k + 1) for _, k in counted]):
        if sum(mults) in (0, total):
            continue
        degs = [0] * h.n
        for (e, _), c in zip(counted, mults):
            for x in range(h.n):
                if e >> x & 1:
                    degs[x] += c
        if all(d == degs[0] for d in degs):
            return False
    return True


def test_is_minimally_regular_matches_the_degree_scan():
    cases = [Hypergraph(1, [1, 1]), Hypergraph(2, [3, 3, 3]), Hypergraph(2, [0, 3])]
    for n in range(1, 5):
        for h in enumerate_proper(n, 4):
            cases += [h, h.dual()]
    for h in cases:
        assert is_minimally_regular(h) == minimally_regular_by_degrees(h), h
    assert sum(map(is_minimally_regular, cases)) > 0


def test_minimal_uniform_regular_duality_small():
    # the two predicates swap under duality on every proper hypergraph
    for n in (1, 2, 3):
        for h in enumerate_proper(n, 3):
            assert h.is_proper
            assert is_minimally_uniform(h) == is_minimally_regular(h.dual())


def test_canonicalize():
    h = Hypergraph(3, [6, 3, 6, 5])
    assert h.canonicalize().edges == (3, 5, 6, 6)
    assert TRIANGLE.canonicalize() == TRIANGLE
    assert Hypergraph(2, []).canonicalize().edges == ()


def test_text_round_trip():
    text = FIG3.to_text()
    assert text == "n=7; edges=[{1,2,3,4},{1,5,6,7},{3,4,5,6},{3,4,6,7}]"
    assert parse_hypergraph(text) == FIG3
    assert parse_hypergraph("n=2; edges=[]") == Hypergraph(2, [])
    assert parse_hypergraph("n=3; edges=[{},{1,2,3}]") == Hypergraph(3, [0, 7])
    with pytest.raises(ValueError):
        parse_hypergraph("edges=[{1}]")
    with pytest.raises(ValueError):
        parse_hypergraph("n=2; edges=[{3}]")


def test_json_round_trip():
    blob = FIG3.to_json()
    obj = json.loads(blob)
    assert obj["n"] == 7
    assert obj["edges"][0] == [1, 2, 3, 4]
    assert hypergraph_from_json(blob) == FIG3
    assert hypergraph_from_json('{"n":2,"edges":[]}') == Hypergraph(2, [])
    with pytest.raises(ValueError):
        hypergraph_from_json('{"n":2,"edges":[[3]]}')
    with pytest.raises(ValueError):
        hypergraph_from_json('{"n":2,"edges":[[1,1]]}')


def test_equality_is_ordered():
    a = Hypergraph(3, [3, 5])
    b = Hypergraph(3, [5, 3])
    assert a != b
    assert a.canonicalize() == b.canonicalize()
    assert hash(a) != hash(Hypergraph(3, [3, 6]))
