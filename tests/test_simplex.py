import hashlib
import random
from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import lcm
from operator import or_

import pytest

from balanced_forge import _simplex, balanced, games
from balanced_forge._simplex import _exact_rank, simplex_min, solve_square, rank_of_masks
from balanced_forge.games import Game, random_game

F = Fraction

# Line count and sha256 of the pivot-path corpus below, recorded from the
# earlier simplex that pivoted on a Fraction tableau.
PIVOT_LINES = 567
PIVOT_DIGEST = "39b739278ff903ce3d7018e4b800f30e02c6cda16bedf53c49aaace92d254b81"
# The number of entries _pivot divides over that corpus, each checked exact.
PIVOT_DIVISIONS = 102357


def test_solve_square():
    x = solve_square([[2, 1], [1, 3]], [5, 10])
    assert x == [F(1), F(3)]
    assert solve_square([[1, 2], [2, 4]], [1, 2]) is None
    assert solve_square([[3]], [2]) == [F(2, 3)]


def test_elimination_swaps_up_a_row_nonzero_in_the_column():
    # column 0 is zero in row 0, so row 1 is swapped up before the pivot
    res = simplex_min([[0, 1, 1], [1, 1, 0]], [1, 1], [1, 2, 1], basis=[0, 1])
    assert res.status == "optimal"
    assert res.objective == 2
    assert res.x == [F(0), F(1), F(0)]
    assert res.basis == [0, 1]
    assert res.pivots == 2
    assert solve_square([[0, 1], [1, 0]], [3, 5]) == [F(5), F(3)]


def test_simplex_basic_feasible():
    # min -x - y  s.t.  x + y + s = 4, x + 2y + t = 6
    res = simplex_min(
        [[1, 1, 1, 0], [1, 2, 0, 1]],
        [4, 6],
        [-1, -1, 0, 0],
    )
    assert res.status == "optimal"
    assert res.objective == -4


def test_simplex_counts_every_pivot():
    A, b, c = [[1, 1, 1, 0], [1, 2, 0, 1]], [4, 6], [-1, -1, 0, 0]
    # phase 1 pivots x, then y, in for the two artificials; phase 2 makes none
    assert simplex_min(A, b, c).pivots == 2
    # two pivots set up the slack basis, then x enters in place of s
    res = simplex_min(A, b, c, basis=[2, 3])
    assert (res.pivots, res.basis) == (3, [0, 3])


def test_simplex_infeasible():
    # x + y = 1, x + y = 3 cannot both hold
    res = simplex_min([[1, 1], [1, 1]], [1, 3], [0, 0])
    assert res.status == "infeasible"


def test_simplex_unbounded():
    # min -x  s.t.  x - y = 0 lets x grow without limit
    res = simplex_min([[1, -1]], [0], [-1, 0])
    assert res.status == "unbounded"


def test_simplex_negative_rhs_rows_flipped():
    res = simplex_min([[-1, -1, -1, 0], [1, 2, 0, 1]], [-4, 6], [-1, -1, 0, 0])
    assert res.status == "optimal"
    assert res.objective == -4


def test_simplex_exact_fractions():
    # min x1 + x2  s.t.  2x1 + x2 = 1, x1 + 3x2 = 1
    res = simplex_min([[2, 1], [1, 3]], [1, 1], [1, 1])
    assert res.status == "optimal"
    assert res.x == [F(2, 5), F(1, 5)]
    assert res.objective == F(3, 5)


def test_simplex_given_basis_skips_phase_one():
    # same LP as above but hand the identity basis of a slack form
    a = [[1, 1, 1, 0], [1, 2, 0, 1]]
    res = simplex_min(a, [4, 6], [-1, -1, 0, 0], basis=[2, 3])
    assert res.status == "optimal"
    assert res.objective == -4
    # basis columns must be tracked correctly in the result
    assert sorted(res.basis) != [2, 3] or res.x[0] + res.x[1] == 4


def test_simplex_given_basis_negative_rhs_is_infeasible():
    res = simplex_min([[1, 0], [0, 1]], [-1, 1], [1, 1], basis=[0, 1])
    assert res.status == "infeasible"


def test_degenerate_cycling_guard():
    # Beale's LP, which cycles under the textbook rule; Bland's rule must
    # terminate. Each row and the cost are scaled to integers.
    a = [
        [1, -32, -4, 36, 4, 0, 0],
        [1, -24, -1, 6, 0, 2, 0],
        [0, 0, 1, 0, 0, 0, 1],
    ]
    b = [0, 0, 1]
    c = [-3, 80, -2, 24, 0, 0, 0]
    res = simplex_min(a, b, c, basis=[4, 5, 6])
    assert res.status == "optimal"
    assert res.objective == -5


def test_rank_of_masks():
    assert rank_of_masks([0b001, 0b010, 0b100], 3) == 3
    assert rank_of_masks([0b011, 0b101, 0b110], 3) == 3
    assert rank_of_masks([0b011, 0b011], 3) == 1
    assert rank_of_masks([0b111, 0b011, 0b100], 3) == 2
    assert rank_of_masks([], 3) == 0


def _fraction_rank(masks, n):
    """Rank by Gaussian elimination on Fraction rows, column by column."""
    rows = [[F(m >> i & 1) for i in range(n)] for m in masks]
    rank = 0
    for col in range(n):
        p = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if p is None:
            continue
        rows[rank], rows[p] = rows[p], rows[rank]
        piv = rows[rank]
        for i, r in enumerate(rows):
            if i != rank and r[col]:
                f = r[col] / piv[col]
                rows[i] = [x - f * y for x, y in zip(r, piv)]
        rank += 1
    return rank


def _rank_mod2(masks, n):
    """Rank over GF(2), by elimination on 0/1 lists column by column."""
    rows = [[m >> i & 1 for i in range(n)] for m in masks]
    rank = 0
    for col in range(n):
        p = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if p is None:
            continue
        rows[rank], rows[p] = rows[p], rows[rank]
        for i, r in enumerate(rows):
            if i != rank and r[col]:
                rows[i] = [x ^ y for x, y in zip(r, rows[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize("masks, n, mod2, rank", [
    # odd cycles: dependent mod 2, independent over Q
    ([0b011, 0b101, 0b110], 3, 2, 3),
    ([0b00011, 0b00110, 0b01100, 0b11000, 0b10001], 5, 4, 5),
    # the 4-cycle: {1,2} + {3,4} = {1,3} + {2,4} over Q as well
    ([0b0011, 0b1100, 0b0101, 0b1010], 4, 3, 3),
    # zero and above-n masks count only their bits 0..n-1, so 0b1001 is
    # {1} at n = 3 and 0b1000 is empty; independent mod 2
    ([0, 0b1001, 0b010, 0b1000], 3, 2, 2),
    # a repeated mask, once above n: dependent mod 2 and over Q
    ([0b101, 0b1101, 0b011], 3, 2, 2),
    # the triangle again, written with bits above n
    ([0b11011, 0b10101, 0b01110], 3, 2, 3),
])
def test_rank_of_masks_on_both_sides_of_the_mod2_test(masks, n, mod2, rank):
    # the rank is the count of nonzero rows exactly when they are
    # independent mod 2; every other set goes on to the elimination over Q
    assert _rank_mod2(masks, n) == mod2
    assert rank_of_masks(masks, n) == _fraction_rank(masks, n) == rank


def test_rank_of_masks_every_small_set_at_n4():
    for size in range(5):
        for masks in combinations(range(16), size):
            assert rank_of_masks(masks, 4) == _fraction_rank(masks, 4), masks


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_rank_of_masks_random_sets(n):
    # the elimination alone, as the duality route runs it at an even k,
    # gives the same rank
    rng = random.Random(n)
    for _ in range(300):
        masks = [rng.randrange(1 << n) for _ in range(rng.randint(1, n + 2))]
        rank = _fraction_rank(masks, n)
        assert rank_of_masks(masks, n) == _exact_rank(masks, n) == rank, masks


def test_rank_of_masks_dense_square_sets_at_n20():
    # n = 20 is where the docstring bounds the packed fields. The shifts
    # of {0} and the non-residues mod 19 form a (19, 10, 5) difference
    # set design, a 0/1 matrix of determinant 10 * 5^9 ~ 2^24.2, the most
    # a 0/1 matrix of order 19 can have; every row holds 10 players, so
    # the all-ones row, eliminated last, is dependent on the others.
    squares = {i * i % 19 for i in range(1, 19)}
    design = {0} | set(range(1, 19)) - squares
    rows = [sum(1 << (i + d) % 19 for d in design) for i in range(19)]
    ones = (1 << 19) - 1
    for masks in (rows, [ones] + rows):
        assert rank_of_masks(masks, 20) == _exact_rank(masks, 20) == _fraction_rank(masks, 20) == 19
    assert rank_of_masks([1 << 19, ones] + rows, 20) == _exact_rank([1 << 19, ones] + rows, 20) == 20
    rng = random.Random(20)
    for trial in range(6):
        masks = [rng.randrange(1 << 20) | rng.randrange(1 << 20) for _ in range(20)]
        if trial % 2:
            masks[-2] &= ~masks[-1]
            masks[0] = masks[-1] | masks[-2]  # the sum of two disjoint rows
        rank = _fraction_rank(masks, 20)
        assert rank_of_masks(masks, 20) == _exact_rank(masks, 20) == rank, masks


def test_given_basis_negative_pivot():
    # row 0 has b = 0, so it is not flipped and its basic entry is -2
    a = [[-2, 3, 0], [1, 0, 1]]
    res = simplex_min(a, [0, 2], [0, -1, 0], basis=[0, 2])
    assert res.status == "optimal"
    assert res.x == [F(2), F(4, 3), F(0)]
    assert res.objective == F(-4, 3)
    assert res.basis == [0, 1]


def test_given_basis_singular_is_rejected():
    with pytest.raises(ValueError):
        simplex_min([[1, 1], [2, 2]], [1, 2], [0, 0], basis=[0, 1])
    with pytest.raises(ValueError):
        simplex_min([[1, 0], [0, 1]], [1, 1], [0, 0], basis=[0])


def test_redundant_zero_row_dropped_after_phase_one():
    # the second row is twice the first, so its artificial cannot leave
    res = simplex_min([[1, 1], [2, 2]], [1, 2], [1, 2])
    assert res.status == "optimal"
    assert res.x == [F(1), F(0)]
    assert res.objective == 1
    assert res.basis == [0]


def _lp_line(res, scale=1):
    """One corpus line, the objective divided by the factor its cost was scaled by."""
    if res.status != "optimal":
        return res.status
    return "optimal %s [%s] %s" % (res.objective / scale, ",".join(map(str, res.x)), res.basis)


def _corpus_games():
    """Seeded core_lp inputs: integer, fractional, negative, raised v(N)."""
    for n in range(3, 7):
        for seed in range(8):
            g = random_game(n, seed)
            full = (1 << n) - 1
            base = {m: g.v[m] for m in range(1, full + 1)}
            yield g
            yield Game(n, {m: v / (1 + (m * (seed + 1)) % 6) for m, v in base.items()})
            yield Game(n, {m: v - 60 for m, v in base.items()})
            yield Game(n, {**base, full: 100 * n})


def _fractional_lps():
    """(A, b, c, basis): 40 seeded rational LPs, then Beale's."""
    rng = random.Random(20240616)
    for _ in range(40):
        m, k = rng.randint(2, 4), rng.randint(3, 7)
        frac = lambda: F(rng.randint(-6, 9), rng.randint(1, 6))
        a = [[frac() for _ in range(k)] for _ in range(m)]
        yield a, [frac() for _ in range(m)], [frac() for _ in range(k)], None
    a = [
        [F(1, 4), -8, -1, 9, 1, 0, 0],
        [F(1, 2), -12, F(-1, 2), 3, 0, 1, 0],
        [0, 0, 1, 0, 0, 0, 1],
    ]
    yield a, [0, 0, 1], [F(-3, 4), 20, F(-1, 2), 6, 0, 0, 0], [4, 5, 6]


def _integer_lp(a, b, c):
    """(A, b, c, scale): all of A|b times one lcm, c times its own lcm, scale."""
    den = lambda v: F(v).denominator
    lab = lcm(*(den(v) for row in a for v in row), *map(den, b))
    scale = lcm(*map(den, c))
    return (
        [[int(v * lab) for v in row] for row in a],
        [int(v * lab) for v in b],
        [int(v * scale) for v in c],
        scale,
    )


def test_pivot_paths_match_recorded_digest(monkeypatch):
    """(status, objective, x, basis) of a seeded corpus, pinned by sha256,
    with every division of every pivot checked to leave no remainder.

    The digest was recorded from the earlier Fraction-tableau simplex, so
    any change to a pivot path, a certificate or a solved system shows.
    The LP takes integers only: a rational LP enters with all of A|b
    scaled by one lcm and c by its own, core_lp hands over a game's worths
    scaled by its den, and each line divides the objective (and core_lp's
    payment system solution) back by the factor the worths or cost were
    scaled by.
    """
    lines = []
    scale = 1
    divisions = 0
    pivot = _simplex._pivot

    def record_lp(A, b, c, basis=None):
        res = simplex_min(A, b, c, basis)
        lines.append(_lp_line(res, scale))
        return res

    def record_square(M, rhs):
        x = solve_square(M, rhs)
        lines.append("square [%s]" % ",".join(str(v / scale) for v in x))
        return x

    def exact_pivot(tab, d, r, c):
        # every entry _pivot divides by d, each checked before it runs
        nonlocal divisions
        sign = 1 if tab[r][c] > 0 else -1
        p, row = sign * tab[r][c], [sign * v for v in tab[r]]
        for i, other in enumerate(tab):
            f = other[c]
            if i != r and (f or p != d):
                assert all((p * a - f * b) % d == 0 for a, b in zip(other, row))
                divisions += len(row)
        return pivot(tab, d, r, c)

    monkeypatch.setattr(_simplex, "_pivot", exact_pivot)
    monkeypatch.setattr(balanced, "simplex_min", record_lp)
    monkeypatch.setattr(games, "simplex_min", record_lp)
    monkeypatch.setattr(games, "solve_square", record_square)
    for g in _corpus_games():
        scale = g.den
        games.core_lp(g)
    scale = 1
    # the corpus holds the balancing LP of every covering combo of sizes
    # 1..3 at n=4, most of which find_balancing_weights now rejects first
    for size in range(1, 4):
        for combo in combinations(range(1, 16), size):
            if reduce(or_, combo) == 15:
                balanced._balancing_lp(4, combo)
    for a, b, c, basis in _fractional_lps():
        a, b, c, scale = _integer_lp(a, b, c)
        record_lp(a, b, c, basis)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (len(lines), digest) == (PIVOT_LINES, PIVOT_DIGEST)
    assert divisions == PIVOT_DIVISIONS
