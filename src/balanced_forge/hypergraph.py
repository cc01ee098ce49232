"""Hypergraphs as labeled multisets of bit-indexed edges.

Edges keep their list order because duality is defined relative to it
(node j of the dual corresponds to edge j here); canonicalize() is the
explicit sorting step. Empty edges are representable since induced
subhypergraphs retain edges that become empty; constructors of proper
hypergraphs must check is_proper themselves.

Minimal uniformity is decided on bitmasks by one ascending scan,
minimal_blocks: is_minimally_uniform, UniformPartition's check and the
decomposition search all call it. The tests compare it against the
definition, which builds each induced subhypergraph with its nodes
relabeled.
"""
import json
from collections import Counter
from itertools import product
from operator import mul

from .core import (
    check_int,
    check_players,
    format_coalition,
    full_mask,
    parse_coalition,
    read_json,
    split_line,
)


class Hypergraph:
    __slots__ = ("n", "edges")

    def __init__(self, n, edges):
        check_players(n)
        full = full_mask(n)
        edges = tuple(edges)
        for e in edges:
            if type(e) is not int:
                raise ValueError("edge %r is not an int bitmask" % (e,))
            if e < 0 or e > full:
                raise ValueError("edge %r outside node range 1..%d" % (e, n))
        self.n = n
        self.edges = edges

    @classmethod
    def _trusted(cls, n, edges):
        """Skip validation; n must pass check_players and edges must be a
        tuple of int masks in 0..full_mask(n).

        For hypergraphs this module and enumeration build themselves:
        enumerated multisets, canonical forms, duals and the duality
        route's covers, whose edges are in range by construction.
        enumeration._multisets builds its hypergraphs the same way inline,
        which saves a call per multiset; a change here must be made there
        too.
        """
        self = object.__new__(cls)
        self.n = n
        self.edges = edges
        return self

    @property
    def size(self):
        """Number of edges, multiplicity counted."""
        return len(self.edges)

    @property
    def is_proper(self):
        """Spanning with no empty edge (the only kind duality accepts)."""
        cover = 0
        for e in self.edges:
            if e == 0:
                return False
            cover |= e
        return cover == full_mask(self.n)

    def __eq__(self, other):
        return (
            isinstance(other, Hypergraph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return "Hypergraph(%d, %s)" % (self.n, list(self.edges))

    def degrees(self):
        """Degree of each node 1..n, in one pass over the edges' set bits."""
        ds = [0] * self.n
        for e in self.edges:
            while e:
                low = e & -e
                ds[low.bit_length() - 1] += 1
                e ^= low
        return ds

    def regularity(self):
        """Common node degree, or None. Edgeless hypergraphs give None."""
        if not self.edges:
            return None
        ds = self.degrees()
        return ds[0] if all(d == ds[0] for d in ds) else None

    def uniformity(self):
        """Common edge cardinality, or None. Empty edges count as 0."""
        if not self.edges:
            return None
        cs = [e.bit_count() for e in self.edges]
        return cs[0] if all(c == cs[0] for c in cs) else None

    def dual(self):
        """Exchange nodes and edges through the incidence relation.

        Node j of the dual is edge j of self; the edge emitted for node x
        of self is the star {j : x in e_j}. dual(dual(H)) == H exactly.
        Every star is a mask of the edge indices, so the one check left is
        that the edge count is a valid node count.
        """
        if not self.is_proper:
            raise ValueError("dual is defined for proper hypergraphs only")
        check_players(len(self.edges))
        stars = []
        for x in range(self.n):
            star = 0
            for j, e in enumerate(self.edges):
                if e >> x & 1:
                    star |= 1 << j
            stars.append(star)
        return Hypergraph._trusted(len(self.edges), tuple(stars))

    def canonicalize(self):
        return Hypergraph._trusted(self.n, tuple(sorted(self.edges)))

    def to_text(self):
        return "n=%d; edges=[%s]" % (
            self.n,
            ",".join(format_coalition(e) for e in self.edges),
        )

    def to_json(self):
        return json.dumps(
            {"n": self.n, "edges": [[p + 1 for p in range(self.n) if e >> p & 1] for e in self.edges]},
            separators=(",", ":"),
        )


def parse_hypergraph(text):
    """Parse the one-line text form `n=7; edges=[{1,2},{3}]`; `{}` edges are kept."""
    n, items = split_line(text, "edges=")
    return Hypergraph(n, [parse_coalition(p, n) for p in items])


def hypergraph_from_json(text):
    """Parse `{"n": 3, "edges": [[1, 2], [3]]}`: a list of lists of node ids."""
    obj = read_json(text, "hypergraph", ("edges",))
    n = obj["n"]
    lists = obj["edges"]
    if not isinstance(lists, list) or not all(isinstance(lst, list) for lst in lists):
        raise ValueError("edges must be a list of lists of node ids, got %r" % (lists,))
    edges = []
    for lst in lists:
        m = 0
        for p in lst:
            check_int("node id", p, 1, n)
            m |= 1 << (p - 1)
        if len(lst) != m.bit_count():
            raise ValueError("duplicate node ids in edge %r" % (lst,))
        edges.append(m)
    return Hypergraph(n, edges)


def _uniform_on(edges, nodes):
    return len({(e & nodes).bit_count() for e in edges}) == 1


def minimal_blocks(edges, nodes):
    """Yield, ascending, the minimally uniform masks inside the node mask
    that hold its lowest node.

    A restriction keeps empty intersections and is not relabeled, so its
    uniformity is one set of intersection sizes. If s and t <= s are
    uniform, so is s ^ t: each edge meets it in a difference of two
    constants. A uniform s that is not minimal thus holds a smaller
    minimal block with s's lowest node, found earlier in the scan, so
    skipping every s that holds a found block leaves the minimal ones.
    A negative or empty node mask, which has no lowest node, raises
    ValueError at the call, before the scan starts.
    """
    if nodes <= 0:
        raise ValueError("%s node mask %d" % ("negative" if nodes else "empty", nodes))
    return _blocks(edges, nodes)


def _blocks(edges, nodes):
    low = nodes & -nodes
    rest = nodes ^ low
    found = []
    t = 0
    while True:
        s = low | t
        for b in found:
            if b & s == b:
                break
        else:
            if _uniform_on(edges, s):
                found.append(s)
                yield s
        if t == rest:
            return
        t = (t - rest) & rest


def minimally_uniform_on(edges, nodes):
    """Whether the edges restricted to the node mask are uniform and their
    restriction to every nonempty proper subset of it is not.

    Edgeless input is not uniform. The node mask is checked as
    minimal_blocks checks it.
    """
    blocks = minimal_blocks(edges, nodes)
    return _uniform_on(edges, nodes) and next(blocks) == nodes


def is_minimally_uniform(h):
    """Uniform with no uniform induced subhypergraph on a proper subset.

    Proper means a nonempty subset A of the nodes with A != N; the induced
    object keeps empty intersections, which is what makes the predicate
    nontrivial.
    """
    return minimally_uniform_on(h.edges, full_mask(h.n))


def is_minimally_regular(h):
    """Regular with no regular partial hypergraph on a proper sub-multiset.

    Proper means a nonempty sub-multiset X of the edges with X != E
    (multiplicities matter: one of two copies of an edge is proper).

    Sub-multisets are scanned lazily, one multiplicity vector at a time.
    Each distinct edge is packed as one int with a field of `width` bits
    per node, holding 1 where the node is in the edge; a sub-multiset's
    degree vector is then the multiplicity-weighted sum of those ints.
    A node's degree is at most the edge count `total` < 2**(width - 1),
    so no field carries. The degrees are then all equal exactly when the
    packed sum is a multiple of `ones`, the int with a 1 in every field:
    the sum is below 2**(n * width), so the quotient fits one field and
    is the common degree.
    """
    if h.regularity() is None:
        return False
    counted = sorted(Counter(h.edges).items())
    total = len(h.edges)
    width = total.bit_length() + 1
    spread = [1 << (x * width) for x in range(h.n)]
    ones = sum(spread)
    vecs = [sum(f for x, f in enumerate(spread) if e >> x & 1) for e, _ in counted]
    ranges = [range(k + 1) for _, k in counted]
    for mults in product(*ranges):
        took = sum(mults)
        if took == 0 or took == total:
            continue
        if sum(map(mul, mults, vecs)) % ones == 0:
            return False
    return True
