"""Closed-form counts of labeled k-uniform multihypergraphs.

count_spanning is the inclusion-exclusion coefficient formula; its
degenerate boundary values (p = 0, tiny n) fall out of the formula
itself and are exactly the conventions the inversion identity

    count_total(n,k,p) = sum_i C(n,i) * count_spanning(i,k,p)

needs, so nothing is special-cased.
"""
from .core import binomial, multiset_coefficient

MAX_TABLE_N = 30


def _check_sizes(n, k, p):
    for name, value in (("n", n), ("k", k), ("p", p)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError("%s must be an int, got %r" % (name, value))
        if value < 0:
            raise ValueError("%s must be >= 0, got %d" % (name, value))


def count_total(n, k, p):
    """Multisets of p edges from the k-subsets of an n-set (no spanning)."""
    _check_sizes(n, k, p)
    return multiset_coefficient(binomial(n, k), p)


def count_spanning(n, k, p):
    """Labeled spanning k-uniform multihypergraphs of size p on n nodes.

    Alternating sum over sub-node-sets: sum (-1)^(n-i) C(n,i) times the
    total count on i nodes, the rising factorial m(m+1)...(m+p-1) over p!
    for m = C(i,k), which is multiset_coefficient(m, p). That factorial
    has p factors: the source text's inline convention has p+1, but its
    worked numbers (3*4*5/3! = 10 from a 3-element ground set) force p.
    An n, k or p that is negative, a bool or not an int raises ValueError.
    """
    _check_sizes(n, k, p)
    total = 0
    for i in range(n + 1):
        term = binomial(n, i) * multiset_coefficient(binomial(i, k), p)
        total += term if (n - i) % 2 == 0 else -term
    return total


def count_cumulative(n_max, k, p):
    """Sum of count_spanning over n = k..n_max (bare coefficient sum).

    This is the literal summation in the source example (which totals 8
    for k=2, p=3, n_max=3); it sums coefficients, not C(n_max,n)-weighted
    counts on sub-node-sets of a fixed ground set.
    """
    _check_sizes(n_max, k, p)
    return sum(count_spanning(n, k, p) for n in range(k, n_max + 1))


def egf_table(k, p, n_max):
    """The spanning counts count_spanning(n, k, p) for n = 0..n_max, as a list."""
    if not 0 <= n_max <= MAX_TABLE_N:
        raise ValueError("n_max %r outside 0..%d" % (n_max, MAX_TABLE_N))
    return [count_spanning(n, k, p) for n in range(n_max + 1)]


def count_graphs(n):
    """Labeled simple graphs on n nodes: 2^C(n,2)."""
    if not 0 <= n <= 64:
        raise ValueError("n %r outside 0..64" % (n,))
    return 1 << binomial(n, 2)
