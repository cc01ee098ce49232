"""Closed-form counts of labeled k-uniform multihypergraphs.

count_spanning is the inclusion-exclusion coefficient formula; its
degenerate boundary values (p = 0, tiny n) fall out of the formula
itself and are exactly the conventions the inversion identity

    count_total(n,k,p) = sum_i C(n,i) * count_spanning(i,k,p)

needs, so nothing is special-cased.
"""
from .core import binomial, check_int, multiset_coefficient

MAX_TABLE_N = 30


def count_total(n, k, p):
    """Multisets of p edges from the k-subsets of an n-set (no spanning)."""
    for name, value in zip("nkp", (n, k, p)):
        check_int(name, value, 0)
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
    for name, value in zip("nkp", (n, k, p)):
        check_int(name, value, 0)
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
    for name, value in zip("nkp", (n_max, k, p)):
        check_int(name, value, 0)
    return sum(count_spanning(n, k, p) for n in range(k, n_max + 1))


def egf_table(k, p, n_max):
    """The spanning counts count_spanning(n, k, p) for n = 0..n_max, as a list."""
    check_int("n_max", n_max, 0, MAX_TABLE_N)
    return [count_spanning(n, k, p) for n in range(n_max + 1)]


def count_graphs(n):
    """Labeled simple graphs on n nodes: 2^C(n,2)."""
    check_int("n", n, 0, 64)
    return 1 << binomial(n, 2)
