import hashlib
import random
from fractions import Fraction
from functools import reduce
from itertools import combinations
from operator import or_

import pytest

from balanced_forge import balanced, games
from balanced_forge._simplex import simplex_min, solve_square, rank_of_masks
from balanced_forge.games import Game, random_game

F = Fraction

# Line count and sha256 of the pivot-path corpus below, recorded from the
# earlier simplex that pivoted on a Fraction tableau.
PIVOT_LINES = 567
PIVOT_DIGEST = "39b739278ff903ce3d7018e4b800f30e02c6cda16bedf53c49aaace92d254b81"


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
    # classic Beale-style degeneracy; Bland's rule must terminate
    a = [
        [F(1, 4), -8, -1, 9, 1, 0, 0],
        [F(1, 2), -12, F(-1, 2), 3, 0, 1, 0],
        [0, 0, 1, 0, 0, 0, 1],
    ]
    b = [0, 0, 1]
    c = [F(-3, 4), 20, F(-1, 2), 6, 0, 0, 0]
    res = simplex_min(a, b, c, basis=[4, 5, 6])
    assert res.status == "optimal"
    assert res.objective == F(-5, 4)


def test_rank_of_masks():
    assert rank_of_masks([0b001, 0b010, 0b100], 3) == 3
    assert rank_of_masks([0b011, 0b101, 0b110], 3) == 3
    assert rank_of_masks([0b011, 0b011], 3) == 1
    assert rank_of_masks([0b111, 0b011, 0b100], 3) == 2
    assert rank_of_masks([], 3) == 0


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


def test_fractional_inputs():
    a = [[F(1, 2), F(1, 3), 1, 0], [F(1, 4), F(3, 2), 0, 1]]
    b = [F(3, 2), F(5, 3)]
    c = [F(-1, 2), F(-2, 3), 0, 0]
    res = simplex_min(a, b, c)
    assert res.status == "optimal"
    assert res.x == [F(61, 24), F(11, 16), F(0), F(0)]
    assert res.objective == F(-83, 48)
    assert sum(a[0][j] * res.x[j] for j in range(4)) == b[0]
    assert sum(a[1][j] * res.x[j] for j in range(4)) == b[1]
    assert solve_square([[F(1, 2), F(1, 3)], [F(1, 4), F(3, 2)]], b) == [F(61, 24), F(11, 16)]


def _lp_line(res):
    if res.status != "optimal":
        return res.status
    return "optimal %s [%s] %s" % (res.objective, ",".join(map(str, res.x)), res.basis)


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


def _random_fractional_lps():
    rng = random.Random(20240616)
    for _ in range(40):
        m, k = rng.randint(2, 4), rng.randint(3, 7)
        frac = lambda: F(rng.randint(-6, 9), rng.randint(1, 6))
        a = [[frac() for _ in range(k)] for _ in range(m)]
        yield a, [frac() for _ in range(m)], [frac() for _ in range(k)]


def test_pivot_paths_match_recorded_digest(monkeypatch):
    """(status, objective, x, basis) of a seeded corpus, pinned by sha256.

    The digest was recorded from the earlier Fraction-tableau simplex, so
    any change to a pivot path, a certificate or a solved system shows.
    """
    lines = []

    def record_lp(A, b, c, basis=None):
        res = simplex_min(A, b, c, basis)
        lines.append(_lp_line(res))
        return res

    def record_square(M, rhs):
        x = solve_square(M, rhs)
        lines.append("square [%s]" % ",".join(map(str, x)))
        return x

    monkeypatch.setattr(balanced, "simplex_min", record_lp)
    monkeypatch.setattr(games, "simplex_min", record_lp)
    monkeypatch.setattr(games, "solve_square", record_square)
    for g in _corpus_games():
        games.core_lp(g)
    # the corpus holds the balancing LP of every covering combo of sizes
    # 1..3 at n=4, most of which find_balancing_weights now rejects first
    for size in range(1, 4):
        for combo in combinations(range(1, 16), size):
            if reduce(or_, combo) == 15:
                balanced._balancing_lp(4, combo)
    for a, b, c in _random_fractional_lps():
        record_lp(a, b, c)
    a = [
        [F(1, 4), -8, -1, 9, 1, 0, 0],
        [F(1, 2), -12, F(-1, 2), 3, 0, 1, 0],
        [0, 0, 1, 0, 0, 0, 1],
    ]
    record_lp(a, [0, 0, 1], [F(-3, 4), 20, F(-1, 2), 6, 0, 0, 0], basis=[4, 5, 6])
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (len(lines), digest) == (PIVOT_LINES, PIVOT_DIGEST)
