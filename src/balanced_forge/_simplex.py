"""Exact simplex on an integer-preserving tableau, and small elimination helpers.

A, b and c hold Python ints (a caller scales rational data first), and so
does the tableau: fraction-free pivoting (Edmonds 1967, Bareiss 1968).
The integer tableau M stands for the rational tableau T = M / d, with one
common denominator d > 0 shared by every row, the reduced-cost row included.

A pivot on p = M[r][c] keeps the pivot row and replaces every other row
by (p*a - f*b) // d, where f is that row's entry in column c and b the
pivot row's entry in the same column as a; then d becomes |p|, and when
p < 0 the whole tableau is negated so that d stays positive. The division
is exact: by Sylvester's determinant identity every entry of M is, up to
sign, a minor of the integer input (the constraint rows bordered by the
cost row, with the artificial identity columns of phase 1), and d is the
absolute determinant of the current basis.

Everything here is deterministic: Bland's anti-cycling rule picks the
lowest-index column whose reduced cost is negative, which, as d > 0, is
the sign of its integer entry, and the ratio test compares rhs_i / a_i by
cross-multiplication, breaking ties on the lowest basis variable. Scaling
c, or all of A|b, by a positive number changes no reduced-cost sign and
no ratio, hence no pivot. Rationals are built only for the returned
solution, as rhs / d.

One elimination, _eliminate, brings a list of columns into the rows one
at a time with _pivot: simplex_min's start from a given basis and
solve_square both run it.
"""
from fractions import Fraction

ZERO = Fraction(0)
FIELD = 64  # bits per packed row entry in rank_of_masks
_HALF = 1 << FIELD - 1
_MASK = (1 << FIELD) - 1


class LpResult:
    """pivots counts every pivot of the solve, phase 1 and the initial basis included."""

    __slots__ = ("status", "objective", "x", "basis", "pivots")

    def __init__(self, status, objective=None, x=None, basis=None, pivots=0):
        self.status = status
        self.objective = objective
        self.x = x
        self.basis = basis
        self.pivots = pivots


def _pivot(tab, d, r, c):
    """Fraction-free pivot on tab[r][c] over every row; returns the new d."""
    row = tab[r]
    p = row[c]
    if p < 0:
        p = -p
        row = tab[r] = [-v for v in row]
    for i, other in enumerate(tab):
        if i == r:
            continue
        f = other[c]
        if f:
            tab[i] = [(p * a - f * b) // d for a, b in zip(other, row)]
        elif p != d:
            tab[i] = [p * a // d for a in other]
    return p


def _eliminate(rows, cols):
    """Fraction-free Gauss-Jordan from d = 1, column cols[i] into row i.

    Each step swaps up the first row at or below i that is nonzero in
    cols[i] and pivots there. Returns the final d, or None when some
    column has no such row (cols dependent, or more cols than rows).
    """
    d = 1
    m = len(rows)
    for i, col in enumerate(cols):
        for r in range(i, m):
            if rows[r][col]:
                break
        else:
            return None
        rows[i], rows[r] = rows[r], rows[i]
        d = _pivot(rows, d, i, col)
    return d


def _iterate(tab, basis, d, allowed):
    """Bland pivots until optimal or unbounded; returns (status, d, pivots).

    tab holds one row per basis entry, then the reduced-cost row.
    """
    m = len(basis)
    pivots = 0
    while True:
        cost = tab[-1]
        enter = -1
        for j in range(allowed):
            if cost[j] < 0:
                enter = j
                break
        if enter < 0:
            return "optimal", d, pivots
        leave = -1
        best_rhs = best_a = 0
        for i in range(m):
            row = tab[i]
            a = row[enter]
            if a > 0:
                # rhs / a < best_rhs / best_a, both denominators positive
                lhs, rhs = row[-1] * best_a, best_rhs * a
                if leave < 0 or lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave, best_rhs, best_a = i, row[-1], a
        if leave < 0:
            return "unbounded", d, pivots
        d = _pivot(tab, d, leave, enter)
        basis[leave] = enter
        pivots += 1


def simplex_min(A, b, c, basis=None):
    """Minimize c.x subject to A x = b, x >= 0 (equality-form simplex).

    basis, when given, must list one column per row already forming a
    feasible basis (ValueError when its columns are singular or not one
    per row); otherwise
    a phase-1 with artificial variables runs first. Returns
    LpResult(status, objective, x, basis, pivots) with status one of
    optimal, infeasible, unbounded.
    """
    m = len(A)
    ncols = len(c)
    # the rows of A|b, each negated where its b is negative
    rows = [[*r, v] if v >= 0 else [-a for a in (*r, v)] for r, v in zip(A, b)]

    if basis is None:
        # Phase 1 minimizes the sum of one artificial per input row: its
        # reduced-cost row is minus the column sums of the rows. Artificial
        # columns never enter and are dropped afterwards, so they are not
        # stored.
        cost = [-sum(row[j] for row in rows) for j in range(ncols + 1)]
        basis = [ncols + i for i in range(m)]
        tab = rows + [cost]
        status, d, pivots = _iterate(tab, basis, 1, ncols)
        if status != "optimal" or tab[-1][-1] != 0:
            return LpResult("infeasible", pivots=pivots)
        # pivot lingering artificials out; drop rows that are redundant
        keep = []
        for i in range(m):
            if basis[i] >= ncols:
                for j in range(ncols):
                    if tab[i][j]:
                        break
                else:
                    continue  # all-zero constraint, drop
                d = _pivot(tab, d, i, j)
                basis[i] = j
                pivots += 1
            keep.append(i)
        rows = [tab[i] for i in keep]
        basis = [basis[i] for i in keep]
    else:
        basis = list(basis)
        d = _eliminate(rows, basis) if len(basis) == m else None
        if d is None:
            raise ValueError("basis must name %d linearly independent columns" % m)
        pivots = m
        for row in rows:
            if row[-1] < 0:
                return LpResult("infeasible", pivots=pivots)

    # phase 2: the reduced costs of c, times d
    cost = [d * v for v in c] + [0]
    for row, bi in zip(rows, basis):
        f = c[bi]
        if f:
            cost = [z - f * a for z, a in zip(cost, row)]
    tab = rows + [cost]
    status, d, phase2 = _iterate(tab, basis, d, ncols)
    pivots += phase2
    if status != "optimal":
        return LpResult(status, pivots=pivots)
    x = [ZERO] * ncols
    for i, bi in enumerate(basis):
        x[bi] = Fraction(tab[i][-1], d)
    objective = Fraction(-tab[-1][-1], d)
    return LpResult("optimal", objective, x, list(basis), pivots)


def solve_square(M, rhs):
    """Exact solution of a square integer system, or None when singular."""
    rows = [[*r, v] for r, v in zip(M, rhs)]
    d = _eliminate(rows, range(len(rows)))
    if d is None:
        return None
    return [Fraction(row[-1], d) for row in rows]


def rank_of_masks(masks, n):
    """Rank over the rationals of 0/1 incidence vectors given as bitmasks.

    Only bits 0..n-1 of each mask count. The nonzero masks are first
    reduced mod 2 against an XOR basis keyed by highest bit. Rows that
    are independent mod 2 are independent over Q, since a rational
    dependency scaled to coprime integers is nonzero mod 2; then the rank
    is their number. Only rows dependent mod 2, such as the triangle
    {1,2}, {1,3}, {2,3}, go on to the elimination over Q.

    There each row is one Python int whose entry i is the signed FIELD-bit
    field at bit FIELD * i, as in _mbc_pure.direct_search, so scaling and
    adding rows acts on every entry at once. The elimination is
    fraction-free with exact division (Bareiss 1968): each step takes a
    nonzero row R as pivot, with a its lowest nonzero entry and d the
    previous pivot (1 at first), and replaces every other row r by
    (a * r - b * R) / d, b being r's entry in a's column; rows that vanish
    are dropped, and the rank is the number of pivots. By Sylvester's
    identity every stored entry is then a minor of order at most n of the
    0/1 matrix, so by Hadamard's inequality at most
    (n + 1)^((n + 1) / 2) / 2^n in absolute value, below 2^27 for
    n <= 20 = MAX_PLAYERS. Hence a * r - b * R stays below 2^55, every
    field inside +-2^63, and as d divides every field it divides the
    packed int exactly.
    """
    full = (1 << n) - 1
    kept = []
    basis = {}  # highest bit -> a row of the XOR basis holding it
    for m in masks:
        m &= full
        if m:
            kept.append(m)
            while m:
                top = basis.get(m.bit_length())
                if top is None:
                    basis[m.bit_length()] = m
                    break
                m ^= top
    if len(basis) == len(kept):
        return len(kept)
    rows = []
    for m in kept:
        row = 0
        while m:
            low = m & -m
            row |= 1 << FIELD * (low.bit_length() - 1)
            m ^= low
        rows.append(row)
    bias = _HALF * ((1 << FIELD * n) - 1) // _MASK  # _HALF in each of n fields
    rank = 0
    d = 1
    while rows:
        piv = rows.pop()
        s = ((piv & -piv).bit_length() - 1) // FIELD * FIELD
        a = ((piv >> s) + _HALF & _MASK) - _HALF  # fields below s are 0
        rank += 1
        reduced = []
        for r in rows:
            b = ((r + bias) >> s & _MASK) - _HALF
            r = (a * r - b * piv) // d
            if r:
                reduced.append(r)
        rows = reduced
        d = a
    return rank
