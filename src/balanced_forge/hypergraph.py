"""Hypergraphs as labeled multisets of bit-indexed edges.

Edges keep their list order because duality is defined relative to it
(node j of the dual corresponds to edge j here); canonicalize() is the
explicit sorting step. Empty edges are representable since induced
subhypergraphs retain edges that become empty; constructors of proper
hypergraphs must check is_proper themselves.

Minimal uniformity is decided in one place, minimally_uniform_on, on
bitmasks: is_minimally_uniform and the blocks of decomposition both
call it. The tests compare it against the definition, which builds each
induced subhypergraph with its nodes relabeled.
"""
import json
from collections import Counter
from itertools import product

from .core import check_players, full_mask, format_coalition, parse_coalition, split_line


class Hypergraph:
    __slots__ = ("n", "edges")

    def __init__(self, n, edges):
        check_players(n)
        full = full_mask(n)
        edges = tuple(int(e) for e in edges)
        for e in edges:
            if e < 0 or e > full:
                raise ValueError("edge %r outside node range 1..%d" % (e, n))
        self.n = n
        self.edges = edges

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

    def degree(self, x):
        """Number of edges containing node x (1-based)."""
        if not 1 <= x <= self.n:
            raise ValueError("node %r outside 1..%d" % (x, self.n))
        bit = 1 << (x - 1)
        return sum(1 for e in self.edges if e & bit)

    def degrees(self):
        return [self.degree(x) for x in range(1, self.n + 1)]

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
        """
        if not self.is_proper:
            raise ValueError("dual is defined for proper hypergraphs only")
        stars = []
        for x in range(self.n):
            star = 0
            for j, e in enumerate(self.edges):
                if e >> x & 1:
                    star |= 1 << j
            stars.append(star)
        return Hypergraph(len(self.edges), stars)

    def canonicalize(self):
        return Hypergraph(self.n, sorted(self.edges))

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
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ValueError("hypergraph JSON must be an object, got %r" % (obj,))
    n = obj["n"]
    check_players(n)
    lists = obj["edges"]
    if not isinstance(lists, list) or not all(isinstance(lst, list) for lst in lists):
        raise ValueError("edges must be a list of lists of node ids, got %r" % (lists,))
    edges = []
    for lst in lists:
        m = 0
        for p in lst:
            if not isinstance(p, int) or isinstance(p, bool):
                raise ValueError("node id %r is not an int" % (p,))
            if not 1 <= p <= n:
                raise ValueError("node id %r outside 1..%d" % (p, n))
            m |= 1 << (p - 1)
        if len(lst) != m.bit_count():
            raise ValueError("duplicate node ids in edge %r" % (lst,))
        edges.append(m)
    return Hypergraph(n, edges)


def _uniform_on(edges, nodes):
    return len({(e & nodes).bit_count() for e in edges}) == 1


def minimally_uniform_on(edges, nodes):
    """Whether the edges restricted to the node mask are uniform and their
    restriction to every nonempty proper subset of it is not.

    The restriction is the induced subhypergraph without relabeling: its
    uniformity depends only on the intersection sizes, so no object is
    built. Empty intersections count as size 0 and edgeless input is not
    uniform.
    """
    if not _uniform_on(edges, nodes):
        return False
    s = 0
    while True:
        s = (s - nodes) & nodes
        if s == nodes:
            return True
        if _uniform_on(edges, s):
            return False


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
    """
    if h.regularity() is None:
        return False
    counted = sorted(Counter(h.edges).items())
    total = len(h.edges)
    ranges = [range(k + 1) for _, k in counted]
    for mults in product(*ranges):
        took = sum(mults)
        if took == 0 or took == total:
            continue
        degs = [0] * h.n
        for (e, _), c in zip(counted, mults):
            if c:
                for x in range(h.n):
                    if e >> x & 1:
                        degs[x] += c
        if all(d == degs[0] for d in degs):
            return False
    return True
