"""Acceptance gate: every advertised number and equivalence, end to end.

Each test covers one acceptance item and prints a single summary line;
the numeric expectations are exact, the only tolerances anywhere are the
wall-clock bounds on the enumeration timings.
"""
from functools import lru_cache
from itertools import combinations

from balanced_forge.balanced import (
    is_balanced,
    is_minimal_balanced,
    is_minimal_balanced_oracle,
)
from balanced_forge.core import binomial, coalitions_of
from balanced_forge.counting import count_spanning, count_total
from balanced_forge.enumeration import (
    enumerate_mbc,
    enumerate_mbc_oracle,
    enumerate_uniform,
    k_max,
    mbc_via_duality,
)
from balanced_forge.games import splitmix64
from balanced_forge.verify import SUITES


@lru_cache(maxsize=None)
def _direct(n):
    return enumerate_mbc(n)


def _report(num, label, detail):
    print("criterion %02d PASS %s (%s)" % (num, label, detail), flush=True)


def _verified(suite, **ranges):
    """Run a verify suite and fail with every failing check."""
    checks = SUITES[suite](**ranges)
    failed = [c for c in checks if not c[1]]
    assert not failed, failed
    return checks


def _details(checks, suffix=""):
    return "; ".join(
        "%s: %s" % (name, detail) for name, _, detail in checks if name.endswith(suffix)
    )


def test_criterion_01_known_counts_within_time():
    checks = _verified("table1", max_n=6)
    _report(1, "counts 2..6 reproduced", _details(checks))


def test_criterion_02_direct_equals_bruteforce():
    for n in range(2, 6):
        direct = _direct(n)
        oracle = enumerate_mbc_oracle(n)
        assert direct.coalition_sets() == oracle.coalition_sets(), n
        for a, b in zip(direct, oracle):
            assert a.weights == b.weights, (n, a.coalitions)
    _report(2, "direct route = brute force", "n=2..5 canonical set equality")


def test_criterion_03_duality_equals_direct():
    for n in range(2, 6):
        dual = mbc_via_duality(n, k_max(n))
        assert dual.coalition_sets() == _direct(n).coalition_sets(), n
    _report(3, "duality route = direct route", "n=2..5, k swept to the bound")


def test_criterion_04_small_count_example():
    _verified("example8")
    _report(4, "three-edge pair-hypergraph numbers", "1 + 7 = 8, one minimal (triangle)")


def test_criterion_05_inversion_identity():
    checked = 0
    for n in range(7):
        for k in range(1, n + 1):
            for p in range(5):
                lhs = count_total(n, k, p)
                rhs = sum(binomial(n, i) * count_spanning(i, k, p) for i in range(n + 1))
                assert lhs == rhs, (n, k, p)
                checked += 1
    _report(5, "binomial inversion of spanning counts", "%d (n,k,p) triples" % checked)


def test_criterion_06_counts_match_enumeration():
    checked = 0
    for n in range(1, 6):
        for k in range(1, n + 1):
            for p in range(1, 4):
                want = len(enumerate_uniform(n, k, p, spanning=True))
                assert count_spanning(n, k, p) == want, (n, k, p)
                checked += 1
    _report(6, "closed form = exhaustive listing", "%d (n,k,p) triples" % checked)


def test_criterion_07_duality_equivalence_exhaustive():
    checks = _verified("prop1", max_nodes=5, max_size=4)
    _report(
        7,
        "minimal uniformity <-> minimal regularity of the dual",
        _details(checks, "equivalence"),
    )


def test_criterion_08_decomposition_exists():
    checks = _verified("prop2", max_nodes=6)
    _report(
        8,
        "minimally uniform partition always found",
        "%s; 7-node example has both known partitions" % _details(checks, "existence"),
    )


def test_criterion_09_core_routes_agree():
    checks = _verified("sharpbs", max_n=5, games=1000)
    _report(
        9,
        "LP core test = catalog core test",
        "%s; certificates revalidated exactly" % _details(checks, "agreement"),
    )


def test_criterion_10_minimality_criteria_agree():
    balanced = 0
    for n in (2, 3, 4):
        univ = coalitions_of(n)
        for size in range(1, len(univ) + 1):
            for combo in combinations(univ, size):
                if not is_balanced(n, combo):
                    continue
                balanced += 1
                assert is_minimal_balanced(n, combo) == is_minimal_balanced_oracle(n, combo), (n, combo)
    univ5 = coalitions_of(5)
    gen = splitmix64(5)
    minimal = 0
    for _ in range(10000):
        size = 1 + next(gen) % 7
        picked = []
        while len(picked) < size:
            s = univ5[next(gen) % 31]
            if s not in picked:
                picked.append(s)
        combo = tuple(sorted(picked))
        a = is_minimal_balanced(5, combo)
        assert a == is_minimal_balanced_oracle(5, combo), combo
        minimal += a
    _report(
        10,
        "independence test = subcollection oracle",
        "%d balanced collections exhaustively (n<=4), 10000 samples at n=5 (%d minimal)" % (balanced, minimal),
    )
