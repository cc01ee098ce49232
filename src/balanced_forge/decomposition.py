"""Partitions of a uniform hypergraph into minimally uniform blocks.

Every proper uniform hypergraph admits a partition of its node set such
that the subhypergraph induced on each block (empty intersections kept,
so the edge count is preserved) is minimally uniform. Such partitions
are not unique; decompose returns the lexicographically first one and
decompose_all enumerates them all.

Whether a block qualifies is hypergraph.minimally_uniform_on, the one
minimal-uniformity predicate, applied to the block's node mask; the
search, UniformPartition's check and is_minimally_uniform share it, so
no induced subhypergraph is built. The search decides each block once,
so the partitions it returns are built without UniformPartition's
check, which stays for blocks a caller supplies.
"""
from .core import format_coalition, players_of
from .hypergraph import minimally_uniform_on


class IncompleteDecomposition(RuntimeError):
    """No partition into minimally uniform blocks was found.

    Raised instead of returning a partial answer: a uniform hypergraph
    without such a partition would be a counterexample to the existence
    theorem, so it must surface loudly rather than be masked.
    """


class UniformPartition:
    """Blocks partitioning the nodes, each inducing a minimally uniform
    subhypergraph of the same size as the original.

    Blocks are node bitmasks ordered by lowest member; degrees[i] is the
    uniformity of the subhypergraph induced on blocks[i] (blocks may
    carry different degrees), size is the common edge count.
    """

    __slots__ = ("n", "blocks", "degrees", "size")

    def __init__(self, h, blocks):
        blocks = sorted(blocks, key=lambda b: b & -b)
        union = 0
        degrees = []
        for b in blocks:
            if b == 0:
                raise ValueError("empty block")
            if union & b:
                raise ValueError("blocks overlap")
            union |= b
            if not minimally_uniform_on(h.edges, b):
                raise ValueError(
                    "block %s does not induce a minimally uniform subhypergraph"
                    % format_coalition(b)
                )
            degrees.append((h.edges[0] & b).bit_count())
        if union != (1 << h.n) - 1:
            raise ValueError("blocks do not cover all %d nodes" % h.n)
        self.n = h.n
        self.blocks = tuple(blocks)
        self.degrees = tuple(degrees)
        self.size = h.size

    @classmethod
    def _trusted(cls, h, blocks):
        """Skip validation; blocks must be a tuple partitioning h's nodes
        into minimally uniform blocks, ordered by lowest member.

        For the partitions _partitions yields: it has decided every block
        with minimally_uniform_on already and memoised the answer.
        """
        self = object.__new__(cls)
        self.n = h.n
        self.blocks = blocks
        self.degrees = tuple((h.edges[0] & b).bit_count() for b in blocks)
        self.size = h.size
        return self

    def block_nodes(self):
        return tuple(players_of(b) for b in self.blocks)

    def __eq__(self, other):
        return (
            isinstance(other, UniformPartition)
            and self.n == other.n
            and self.blocks == other.blocks
        )

    def __hash__(self):
        return hash((self.n, self.blocks))

    def __repr__(self):
        return "UniformPartition(%s)" % ", ".join(map(format_coalition, self.blocks))


def _partitions(edges, n):
    """Yield block-mask tuples in lexicographic DFS order.

    The open block always contains the lowest unassigned node, so each
    partition appears exactly once, blocks ordered by lowest member.
    """
    ok = {}
    full = (1 << n) - 1
    acc = []

    def rec(remaining):
        if remaining == 0:
            yield tuple(acc)
            return
        low = remaining & -remaining
        rest = remaining ^ low
        s = 0
        while True:
            block = low | s
            good = ok.get(block)
            if good is None:
                good = ok[block] = minimally_uniform_on(edges, block)
            if good:
                acc.append(block)
                yield from rec(remaining ^ block)
                acc.pop()
            if s == rest:
                break
            s = (s - rest) & rest

    yield from rec(full)


def _check_input(h):
    if not h.is_proper:
        raise ValueError("hypergraph must be spanning with nonempty edges")
    if h.uniformity() is None:
        raise ValueError("hypergraph must be uniform")


def decompose(h):
    """First partition of the nodes into minimally uniform blocks.

    Deterministic: candidate blocks are explored in ascending bitmask
    order, so the result is the lexicographically smallest partition.
    """
    _check_input(h)
    for blocks in _partitions(h.edges, h.n):
        return UniformPartition._trusted(h, blocks)
    raise IncompleteDecomposition(
        "no partition of %d nodes into minimally uniform blocks; "
        "this would be a counterexample to the existence theorem" % h.n
    )


def decompose_all(h):
    """Every partition into minimally uniform blocks, lexicographic order."""
    _check_input(h)
    if h.n > 10:
        raise ValueError("decompose_all capped at n <= 10, got %d" % h.n)
    return [UniformPartition._trusted(h, blocks) for blocks in _partitions(h.edges, h.n)]
