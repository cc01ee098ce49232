"""Partitions of a uniform hypergraph into minimally uniform blocks.

Every proper uniform hypergraph admits a partition of its node set such
that the subhypergraph induced on each block (empty intersections kept,
so the edge count is preserved) is minimally uniform. Such partitions
are not unique; decompose returns the lexicographically first one and
decompose_all enumerates them all.

The blocks come from hypergraph.minimal_blocks, the ascending scan of
the minimally uniform masks that hold a given mask's lowest node.
Uniform restrictions are closed under differences, so once a block is
taken the unassigned nodes are uniform again and always hold a next
block: the search never backtracks, which proves existence, and its
partitions skip UniformPartition's check, which stays for blocks a
caller supplies.
"""
from .core import format_coalition, full_mask, players_of
from .hypergraph import minimal_blocks, minimally_uniform_on


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
        full = full_mask(h.n)
        blocks = list(blocks)
        for b in blocks:
            if type(b) is not int or not 0 < b <= full:
                raise ValueError("block %r is not a node mask in 1..%d" % (b, full))
        blocks.sort(key=lambda b: b & -b)
        union = 0
        degrees = []
        for b in blocks:
            if union & b:
                raise ValueError("blocks overlap")
            union |= b
            if not minimally_uniform_on(h.edges, b):
                raise ValueError(
                    "block %s does not induce a minimally uniform subhypergraph"
                    % format_coalition(b)
                )
            degrees.append((h.edges[0] & b).bit_count())
        if union != full:
            raise ValueError("blocks do not cover all %d nodes" % h.n)
        self.n = h.n
        self.blocks = tuple(blocks)
        self.degrees = tuple(degrees)
        self.size = h.size

    @classmethod
    def _trusted(cls, h, blocks):
        """Skip validation; blocks must be a tuple partitioning h's nodes
        into minimally uniform blocks, ordered by lowest member.

        For the partitions _partitions yields, whose blocks minimal_blocks
        has decided already.
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


def _partitions(edges, nodes):
    """Yield block-mask tuples partitioning the node mask, in lexicographic
    order: each block holds the lowest node not yet assigned.
    """
    if not nodes:
        yield ()
        return
    for block in minimal_blocks(edges, nodes):
        for tail in _partitions(edges, nodes ^ block):
            yield (block,) + tail


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
    for blocks in _partitions(h.edges, full_mask(h.n)):
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
    return [UniformPartition._trusted(h, blocks) for blocks in _partitions(h.edges, full_mask(h.n))]
