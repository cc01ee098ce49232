import glob
import hashlib
import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys
import sysconfig
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, islice
from math import gcd

import pytest

from balanced_forge import _mbc_pure, enumeration
from balanced_forge._kernel import cover_search, direct_search
from balanced_forge.balanced import (
    BalancedCollection,
    efficiency,
    from_regular_hypergraph,
    is_minimal_balanced,
    is_minimal_balanced_oracle,
)
from balanced_forge.core import format_coalition, parse_coalition
from balanced_forge.enumeration import (
    MAX_DET,
    TABLE1,
    CatalogError,
    MbcCatalog,
    enumerate_mbc,
    enumerate_mbc_oracle,
    enumerate_minimally_uniform,
    enumerate_proper,
    enumerate_uniform,
    k_max,
    load_catalog,
    mbc_via_duality,
    save_catalog,
)
from balanced_forge.games import core_lp, core_mbc, random_game
from balanced_forge.hypergraph import Hypergraph, is_minimally_regular, is_minimally_uniform
from balanced_forge.verify import sharpbs_catalog


def test_k_max_values():
    assert [k_max(n) for n in range(2, 7)] == [2, 2, 4, 7, 15]


def _max_abs_det(n):
    """Largest |det| over n x n matrices of distinct nonzero 0/1 rows.

    Rows are added in increasing mask order; each node keeps the minors of
    its rows on every column set of their number, expanded along the new
    row, and a node whose minors all vanish is not extended.
    """
    best = 0

    def rec(start, depth, minors):
        nonlocal best
        if depth == n:
            best = max(best, abs(minors[(1 << n) - 1]))
            return
        for row in range(start, 1 << n):
            grown = {}
            for cols, minor in minors.items():
                for j in range(n):
                    if row >> j & 1 and not cols >> j & 1:
                        sign = -1 if (depth + (cols & ((1 << j) - 1)).bit_count()) & 1 else 1
                        key = cols | 1 << j
                        grown[key] = grown.get(key, 0) + sign * minor
            if any(grown.values()):
                rec(row + 1, depth + 1, grown)

    rec(1, 0, {0: 1})
    return best


def test_max_det_table():
    # C(31, 5) = 169,911 row sets at n = 5; MAX_DET[6] = 9 is OEIS A003432
    assert [_max_abs_det(n) for n in range(2, 6)] == [MAX_DET[n] for n in range(2, 6)]
    # and the direct catalogs reach the bound: it is the largest denominator
    for n in range(2, 6):
        assert max(den for _, _, den in direct_search(n)) == MAX_DET[n]


# sha256 of repr(_mbc_pure.direct_search(5)), the raw triples in DFS order,
# and the result count of each first-member subtree at n = 5, both recorded
# from the earlier search that re-reduced every candidate against all chosen
# rows at each node
DIRECT5_SHA256 = "583ed6963ede852f1e845ac78c1fdfa54a45cf6d9a04daf0d40c59511e00d040"
DIRECT5_SUBTREE_COUNTS = (
    [158, 137, 218, 81, 153, 127, 185, 15, 38, 33, 60, 11, 24, 9, 42] + [0] * 15 + [1]
)


def test_direct_search_output_is_pinned():
    raw = _mbc_pure.direct_search(5)
    assert hashlib.sha256(repr(raw).encode()).hexdigest() == DIRECT5_SHA256
    subtrees = [_mbc_pure.direct_search(5, first) for first in range(1, 32)]
    assert [len(sub) for sub in subtrees] == DIRECT5_SUBTREE_COUNTS
    assert len(raw) == TABLE1[5]
    # the DFS order is ascending mask-tuple order, and so is the
    # concatenation of the subtrees
    assert sum(subtrees, []) == raw == sorted(raw)


# result count and sha256 of repr(_canonical_covers(_mbc_pure.cover_search(n, k))),
# recorded from the earlier search that walked masks in ascending order and
# returned this form; every other (n, k) with 2 <= n <= 5 and 1 <= k <= 5
# had no cover
COVER_PINS = {
    (2, 1): (2, "edf27565c78d59a3a610a03e31dad55e218612fd7f052b26f3b81e4762a01f4d"),
    (3, 1): (5, "2d89b975b452c2439297a2b5305c2f2035a9eaf7f42082a32dce570965ed0966"),
    (3, 2): (1, "705045bd0d214be5f73af8dbab1d50e4ca6507869edac0ef82d070b7a71aac22"),
    (4, 1): (15, "9b44064a49672dd44c15c40323dd256034b8552ec1e270ff690a04b07fa186ee"),
    (4, 2): (22, "a97bda9f0e374a3d7e747f89baf636a9b3d0c1e9328e31c7fada1d523bb580f8"),
    (4, 3): (5, "3b75ca25a8463b82fbc277333ad9513eb26961d8532cf94fc89998425219fc38"),
    (5, 1): (52, "1e90b865f6b529c7faf876ec637c22e5c0a37370ef9d0b55d8365c5fd7afc37d"),
    (5, 2): (447, "bb45e268a7118257e59abd1c5ab2c27ee5f41e36a8b72db192d68ffc8085a45c"),
    (5, 3): (517, "2dbd9864394db90c3ee769422b2a86d742bada5e65aa09d4c404ecd3f8d5210b"),
    (5, 4): (216, "0ba94372a7fe6509f1d4b6c8bbbd509067569a119c27a2d5ea582fe2f4e56fde"),
    (5, 5): (60, "bf975a33a08729c4a6c846c9321e68826bf4162cec5a26547943e18ff17ae430"),
    (6, 1): (203, "7c0f4401721c0bca5909a0960c3779e6f15996b40142c7a014e12396a6a6f76c"),
    (6, 2): (10292, "ceb07c4fa07345b043e88c68c24de907ca87e4f03873e2bd84d385de4a156df4"),
}


def _canonical_covers(covers):
    """Masks ascending within each cover, covers sorted by (m1, c1, m2, c2, ...)."""
    out = []
    for masks, mults in covers:
        pairs = sorted(zip(masks, mults))
        out.append((tuple(m for m, _ in pairs), tuple(c for _, c in pairs)))
    out.sort(key=lambda r: [x for pair in zip(*r) for x in pair])
    return out


def test_cover_search_output_is_pinned():
    pairs = [(n, k) for n in range(2, 6) for k in range(1, 6)] + [(6, 1), (6, 2)]
    for n, k in pairs:
        raw = _mbc_pure.cover_search(n, k)
        if (n, k) in COVER_PINS:
            digest = hashlib.sha256(repr(_canonical_covers(raw)).encode()).hexdigest()
            assert (len(raw), digest) == COVER_PINS[n, k], (n, k)
        else:
            assert raw == [], (n, k)
    # criterion 03 sweeps n = 5 to k_max = 7; no cover lies above k = 5
    assert _mbc_pure.cover_search(5, 6) == _mbc_pure.cover_search(5, 7) == []


def test_farkas_filter_drops_candidates_before_reduction(monkeypatch):
    # a candidate the Farkas rule drops is never reduced against the chosen
    # row, and a child that fails the pair test has no residual reduced, so
    # the number of _reduce calls shows both at work: the same output
    # takes 13,586 calls with the candidate filter off, 20,900 with the
    # pair test run after the child's residual is reduced, 37,148 with the
    # last level's candidates tested there instead of when their list is
    # built, and 70,099 with them not tested at all; every division is
    # exact and every entry stays within ENTRY_MAX
    calls = 0
    reduce = _mbc_pure._reduce
    width, half, mask = _mbc_pure.FIELD, _mbc_pure._HALF, _mbc_pure._MASK
    bias = sum(half << width * i for i in range(11))

    def counted(a, r, b, row, d):
        nonlocal calls
        calls += 1
        q, rem = divmod(a * r - b * row, d)
        assert rem == 0
        # the 2n + 1 = 11 fields hold all of q, each within the bound
        fields = [((q + bias) >> width * i & mask) - half for i in range(11)]
        assert sum(f << width * i for i, f in enumerate(fields)) == q
        assert max(map(abs, fields)) <= 4096
        got = reduce(a, r, b, row, d)
        assert got == q
        return got

    monkeypatch.setattr(_mbc_pure, "_reduce", counted)
    assert len(_mbc_pure.direct_search(5)) == TABLE1[5]
    assert calls == 13542


def _revalidated(n, triple):
    """The kernel triple, trusted and rebuilt through the validating
    constructor: equal only if the kernel's triple is in lowest terms."""
    masks, nums, den = triple
    b = BalancedCollection(n, {m: Fraction(num, den) for m, num in zip(masks, nums)})
    assert BalancedCollection._trusted(n, masks, nums, den) == b
    return b


def test_kernel_triples_are_in_lowest_terms():
    # equality compares the integers, so a trusted triple must already be
    # the validated form: denominator the lcm of the reduced denominators
    for n in range(2, 6):
        for triple in direct_search(n):
            _revalidated(n, triple)


def test_kernel_output_revalidates_at_n6():
    # enumerate_mbc builds collections with BalancedCollection._trusted;
    # re-check the n = 6 subtree whose first member is {3,5} (mask 20)
    # through the validating constructor and the minimality test
    raw = direct_search(6, 20)
    assert len(raw) == 1151
    for triple in raw:
        b = _revalidated(6, triple)
        assert b.coalitions == triple[0]
        assert is_minimal_balanced(6, b.coalitions)


def test_oracle_range():
    with pytest.raises(ValueError):
        enumerate_mbc_oracle(6)
    # n is checked as the other routes check it before the range tests
    for bad in ("5", None, 5.0, True):
        for route in (enumerate_mbc_oracle, enumerate_mbc, mbc_via_duality):
            with pytest.raises(ValueError, match="player count"):
                route(bad)
        with pytest.raises(ValueError, match="player count"):
            is_minimal_balanced_oracle(bad, (1,))


def _denominators(catalog):
    return Counter(b.denominator for b in catalog.collections)


def test_duality_agrees_with_direct():
    # the default kmax = MAX_DET[n]; mbc_via_duality rejects no cover for n <= 5.
    # Each collection is accepted at k = its weight denominator, so the
    # route's ledger of accepted covers per k, in its diagnostics, must
    # equal the direct catalog's histogram by denominator
    for n in range(2, 6):
        dual = mbc_via_duality(n)
        direct = enumerate_mbc(n)
        assert dual.coalition_sets() == direct.coalition_sets()
        histogram = _denominators(direct)
        assert dual.diagnostics["accepted"] == [histogram[k] for k in range(1, MAX_DET[n] + 1)]
        assert dual.diagnostics["covers"] == dual.diagnostics["accepted"]
        assert dual.diagnostics["rejected"] == 0
    # the COVER_PINS counts at n = 5
    assert _denominators(dual) == {1: 52, 2: 447, 3: 517, 4: 216, 5: 60}


def test_duality_raises_on_a_duplicate_collection(monkeypatch):
    # every accepted cover has gcd(k, multiplicities) = 1, so no collection
    # arises twice; if one did, MbcCatalog's duplicate check names it
    first = min(mbc_via_duality(3).collections, key=lambda b: b.coalitions)
    search = enumeration.cover_search
    monkeypatch.setattr(enumeration, "cover_search", lambda n, k: search(n, k) * 2)
    with pytest.raises(ValueError, match="duplicate collection " + re.escape(first.to_text())):
        mbc_via_duality(3)


def test_duality_rejects_non_minimal_covers_at_n6():
    # from n = 6 on, a cover that survives cover_search's filter can have a
    # balanced proper subcollection; k = 2 is the first regularity with any
    assert mbc_via_duality(6, kmax=1).diagnostics["rejected"] == 0
    diagnostics = mbc_via_duality(6, kmax=2).diagnostics
    assert diagnostics["rejected"] == 150
    assert (diagnostics["covers"], diagnostics["accepted"]) == ([203, 10292], [203, 10142])


def test_duality_rejection_counts_at_n6_k3_k4(speedups, catalog6, monkeypatch):
    # the compiled covers at k = 3 (61,927) and k = 4 (63,886) take a few
    # seconds; rejection counts are cumulative over k, and every collection
    # kept is one the direct route finds
    monkeypatch.setattr(enumeration, "cover_search", speedups.cover_search)
    assert mbc_via_duality(6, kmax=3).diagnostics["rejected"] == 5670
    dual = mbc_via_duality(6, kmax=4)
    assert (dual.count, dual.diagnostics["rejected"]) == (127938, 8370)
    assert dual.coalition_sets() <= catalog6.coalition_sets()
    # accepted covers per k, equal to the direct histogram at d = 1..4
    assert _denominators(dual) == {1: 203, 2: 10142, 3: 56407, 4: 61186}
    assert dual.diagnostics["accepted"] == [203, 10142, 56407, 61186]
    assert dual.diagnostics["covers"] == [203, 10292, 61927, 63886]


def test_threads_must_be_positive():
    with pytest.raises(ValueError, match="^threads must be >= 1, got 0$"):
        enumerate_mbc(3, threads=0)
    # a bool or a float is refused, not read as one worker or passed to the pool
    for threads in (True, 2.5):
        with pytest.raises(ValueError, match="^threads must be an int, got %s$" % threads):
            enumerate_mbc(3, threads=threads)


def test_threads_default_counts_the_cpus_this_process_may_use(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5}, raising=False)
    assert enumeration._threads_default() == 2
    monkeypatch.delattr(os, "sched_getaffinity")
    assert enumeration._threads_default() == 64


def test_duality_range_checks():
    with pytest.raises(ValueError):
        mbc_via_duality(7)
    with pytest.raises(ValueError, match="^kmax must be >= 1, got 0$"):
        mbc_via_duality(3, kmax=0)
    # True would sweep k = 1 alone and report "k_max": true
    for kmax in (True, 2.0):
        with pytest.raises(ValueError, match="^kmax must be an int, got %s$" % kmax):
            mbc_via_duality(4, kmax)


def test_covers_are_minimally_regular_and_dualize():
    # every kernel cover is a minimally k-regular spanning hypergraph on
    # the player set whose dual is minimally k-uniform of size n, and its
    # collection's weight denominator is k (1,342 covers for n <= 5)
    for n in range(2, 6):
        for k in range(1, k_max(n) + 1):
            for masks, mults in cover_search(n, k):
                edges = []
                for m, c in zip(masks, mults):
                    edges.extend([m] * c)
                h = Hypergraph(n, edges)
                assert h.regularity() == k
                assert is_minimally_regular(h)
                d = h.dual()
                assert d.uniformity() == k
                assert d.size == n
                assert is_minimally_uniform(d)
                bc = from_regular_hypergraph(h)
                assert (bc.n, bc.denominator) == (n, k)
    # the denominator is k because a common factor g of k and the
    # multiplicities would leave a (k/g)-regular proper sub-multiset, which
    # cover_search rejects; 203 + 10,292 + 61,927 covers at n = 6
    for k in (1, 2, 3):
        for masks, mults in _mbc_pure.cover_search(6, k):
            assert gcd(k, *mults) == 1


def test_partial_kmax_misses_collections():
    # regularity 1 alone yields only the partitions of the player set
    part = mbc_via_duality(3, kmax=1)
    assert part.count == 5
    assert mbc_via_duality(3).count == 6


def test_parallel_split_is_deterministic(speedups, catalog6, monkeypatch):
    # the pure n=6 search takes minutes; forked workers inherit the patch.
    # catalog6 is the one-process search, built as enumerate_mbc builds it
    monkeypatch.setattr(enumeration, "direct_search", speedups.direct_search)
    parallel = enumerate_mbc(6, threads=2)
    assert catalog6.count == TABLE1[6]
    assert catalog6.coalition_sets() == parallel.coalition_sets()
    assert [b.coalitions for b in catalog6.collections] == [
        b.coalitions for b in parallel.collections
    ]


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _build_ext(src_root, env, *args):
    return subprocess.run(
        [sys.executable, "setup.py", "build_ext", *args],
        cwd=src_root,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        timeout=300,
    )


@pytest.fixture(scope="module")
def speedups(tmp_path_factory):
    """The C kernels built from this checkout into a temporary directory.

    Skips when no C compiler or Python headers are present; with both
    present, a build that yields no extension fails the test, and so does
    a warning about _speedups.c under -Wall -Wextra.
    """
    cc = os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc"
    headers = os.path.join(sysconfig.get_paths()["include"], "Python.h")
    if shutil.which(cc.split()[0]) is None or not os.path.exists(headers):
        pytest.skip("no C compiler or Python headers to build the extension")
    out = tmp_path_factory.mktemp("speedups")
    env = dict(os.environ, CFLAGS=os.environ.get("CFLAGS", "") + " -Wall -Wextra")
    proc = _build_ext(ROOT, env, "--build-lib", str(out / "lib"), "--build-temp", str(out / "tmp"))
    built = glob.glob(str(out / "lib" / "balanced_forge" / "_speedups*"))
    if proc.returncode != 0 or not built:
        pytest.fail("building balanced_forge._speedups failed:\n" + proc.stdout)
    warnings = [line for line in proc.stdout.splitlines() if "_speedups.c" in line and "warning" in line]
    if warnings:
        pytest.fail("compiler warnings in _speedups.c:\n" + "\n".join(warnings))
    spec = importlib.util.spec_from_file_location("balanced_forge._speedups", built[0])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_kernel_twins_agree(speedups):
    # at n = 1 the root is the last level
    assert speedups.direct_search(1) == _mbc_pure.direct_search(1) == [((1,), (1,), 1)]
    for n in range(2, 6):
        raw = speedups.direct_search(n)
        assert raw == _mbc_pure.direct_search(n) == sorted(raw)
        # every k up to k_max for n <= 4; at n = 5 the pure twin takes about
        # 0.1 s for k = 5, 0.2 s for k = 6 and 0.5 s for k = 7, and
        # test_cover_search_output_is_pinned already runs k = 6 and 7
        for k in range(1, min(k_max(n), 5) + 1):
            assert speedups.cover_search(n, k) == _mbc_pure.cover_search(n, k)
    assert speedups.cover_search(5, 6) == speedups.cover_search(5, 7) == []
    # n = 6, k = 2 holds the 150 covers the duality route rejects; pure 0.04 s
    # for k = 2 and about 0.8 s for k = 3 (61,927 covers)
    for k in (1, 2, 3):
        assert speedups.cover_search(6, k) == _mbc_pure.cover_search(6, k)
    # n = 7 reaches masks 64..127: 877 covers (Bell 7) for k = 1 and 275,950
    # for k = 2, about 1 s in the pure twin
    for k, count in ((1, 877), (2, 275_950)):
        covers = speedups.cover_search(7, k)
        assert len(covers) == count
        assert covers == _mbc_pure.cover_search(7, k)
    for n in range(2, 6):
        subtrees = []
        for first in range(1, 1 << n):
            sub = speedups.direct_search(n, first)
            assert sub == _mbc_pure.direct_search(n, first)
            subtrees += sub
        assert subtrees == sorted(subtrees) == speedups.direct_search(n)
    # n = 6 subtrees the pure twin finishes in under a second each; first =
    # 16, 20 and 22 hold 750, 1,151 and 1,883 collections and many solved
    # children; for 32 <= first <= 62 every later coalition holds player 6
    # and the Farkas rule cuts the subtree at its root
    for first in (16, 20, 22, 24, 28, 30, 31, *range(32, 63)):
        assert speedups.direct_search(6, first) == _mbc_pure.direct_search(6, first)
    # likewise every n = 7 subtree with 64 <= first <= 126 is empty and cut
    # at once, and first = 127 is the grand coalition alone
    for first in (64, 100, 126):
        assert speedups.direct_search(7, first) == _mbc_pure.direct_search(7, first) == []
    grand = [((127,), (1,), 1)]
    assert speedups.direct_search(7, 127) == _mbc_pure.direct_search(7, 127) == grand


# sha256 of repr(direct_search(6)), recorded from the compiled kernel as it
# was before the Farkas rule
DIRECT6_SHA256 = "dacac381ac0c8bb6def344b051f94f837ea789eed50ea89dfacee566bd46f449"


@pytest.fixture(scope="module")
def direct6(speedups):
    """The compiled kernel's n = 6 search, about 0.5 s, run once per module."""
    return speedups.direct_search(6)


@pytest.fixture(scope="module")
def catalog6(direct6):
    """The n = 6 catalog of the compiled search, as enumerate_mbc(6, threads=1) builds it."""
    cols = [BalancedCollection._trusted(6, masks, nums, den) for masks, nums, den in direct6]
    return MbcCatalog(6, "direct", cols)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_catalog_round_trip_at_n6(catalog6, tmp_path, fmt):
    path = tmp_path / ("n6." + fmt)
    save_catalog(catalog6, path, fmt=fmt)
    back = load_catalog(path)
    assert (back.n, back.method, back.count) == (6, "direct", TABLE1[6])
    assert (back.generated, back.tool) == (catalog6.generated, catalog6.tool)
    assert back.collections == catalog6.collections


def test_core_mbc_scan_index_at_n6(catalog6):
    # (lcd, width, coalitions packed) of core_mbc's index, lcd = lcm(1..9);
    # worths 0..100 span less than 100 * 15120 < 2^23, so 24-bit fields.
    # The catalog is copied, so its index is this test's alone.
    catalog = MbcCatalog(6, "direct", catalog6.collections)
    g = random_game(6, 0)
    verdict, via_lp = core_mbc(g, catalog), core_lp(g)
    assert not verdict.nonempty and verdict.efficiency == via_lp.efficiency
    # the certificate is the first collection of that efficiency
    assert next(b for b in catalog.collections
                if efficiency(b, g) == verdict.efficiency) is verdict.collection
    _, lcd, width, masks, packed = catalog._scan
    assert (lcd, width, len(masks)) == (2520, 15120, 63)
    assert width == 6 * lcd
    assert list(packed) == [24]


def test_compiled_n6_output_is_pinned(direct6):
    assert len(direct6) == TABLE1[6]
    assert hashlib.sha256(repr(direct6).encode()).hexdigest() == DIRECT6_SHA256
    assert direct6 == sorted(direct6)


# sha256 of repr(direct_search(7, 56)), recorded from the compiled kernel
# when it still divided each row by its gcd
DIRECT7_56_SHA256 = "fd10cd2a58af741e8e0afaa02ed3db81fbc6ff97d290044113a2a8f68befa6e9"


def test_compiled_n7_subtree_is_pinned(speedups):
    # a nonempty n = 7 subtree, about 0.1 s: rows of 15 entries and minors
    # of order 8, which no n <= 6 search reaches
    raw = speedups.direct_search(7, 56)
    assert len(raw) == 26618
    assert max(den for _, _, den in raw) == 15
    assert hashlib.sha256(repr(raw).encode()).hexdigest() == DIRECT7_56_SHA256


def test_pure_n7_subtree_is_pinned():
    # the same subtree in the pure twin, about 2 s; the other pure n = 7
    # searches here are cut at the root or hold the grand coalition alone
    raw = _mbc_pure.direct_search(7, 56)
    assert len(raw) == 26618
    assert hashlib.sha256(repr(raw).encode()).hexdigest() == DIRECT7_56_SHA256


def test_sharpbs_lp_equals_catalog_at_n6(catalog6):
    # 40 seeded games and 10 raised ones; core_mbc's packed scan costs
    # about 20 ms per game at n = 6, and building its index for the first
    # field width about 0.3 s, for the second (the raised games') 0.15 s
    checks = sharpbs_catalog(catalog6, 40)
    assert [name for name, _, _ in checks] == [
        "sharpbs n=6 agreement",
        "sharpbs n=6 certificates",
        "sharpbs n=6 raised cores nonempty",
    ]
    assert all(ok for _, ok, _ in checks), checks
    assert checks[0][2] == "50 games, 10 nonempty"


@pytest.mark.parametrize("twin", ["pure", "compiled"])
def test_kernel_twins_reject_the_same_arguments(twin, request):
    kernel = _mbc_pure if twin == "pure" else request.getfixturevalue("speedups")
    for n in (0, 8):
        with pytest.raises(ValueError):
            kernel.direct_search(n)
        with pytest.raises(ValueError):
            kernel.cover_search(n, 2)
    for first in (-1, 8):
        with pytest.raises(ValueError):
            kernel.direct_search(3, first)
    with pytest.raises(ValueError):
        kernel.cover_search(3, 0)
    # (2^14 + 1)^2 encodings exceed the 2^28-bit state space
    with pytest.raises(ValueError):
        kernel.cover_search(2, (1 << 14) + 1)


def test_build_without_compiler_falls_back(tmp_path):
    pytest.importorskip("setuptools")
    for name in ("setup.py", "pyproject.toml", "README.md"):
        shutil.copy(os.path.join(ROOT, name), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "src"),
        tmp_path / "src",
        ignore=shutil.ignore_patterns("__pycache__", "*.so", "*.pyd", "*.egg-info"),
    )
    env = dict(os.environ, CC=os.path.join(str(tmp_path), "no-such-cc"))
    proc = _build_ext(tmp_path, env, "--inplace")
    assert proc.returncode == 0, proc.stdout
    assert glob.glob(str(tmp_path / "src" / "balanced_forge" / "_speedups*")) == [
        str(tmp_path / "src" / "balanced_forge" / "_speedups.c")
    ]
    env["PYTHONPATH"] = str(tmp_path / "src")
    out = subprocess.run(
        [sys.executable, "-c", "from balanced_forge._kernel import KERNEL; print(KERNEL)"],
        env=env,
        capture_output=True,
        text=True,
    )
    assert out.stdout.split() == ["pure"], out.stderr


def test_catalog_rejects_bad_method():
    with pytest.raises(ValueError):
        MbcCatalog(3, "guesswork", [])


def test_catalog_rejects_wrong_player_count():
    cols = enumerate_mbc(2).collections
    with pytest.raises(ValueError):
        MbcCatalog(3, "direct", cols)


def test_catalog_rejects_duplicates():
    cols = enumerate_mbc(2).collections
    with pytest.raises(ValueError):
        MbcCatalog(2, "direct", cols + [cols[0]])


def test_catalog_roundtrip_text(tmp_path):
    cat = enumerate_mbc(5)
    path = tmp_path / "n5.mbc"
    save_catalog(cat, path)
    back = load_catalog(path)
    assert (back.n, back.method, back.count) == (5, "direct", TABLE1[5])
    assert (back.generated, back.tool) == (cat.generated, cat.tool)
    assert back.collections == cat.collections


def test_catalog_roundtrip_json(tmp_path):
    cat = enumerate_mbc(5)
    path = tmp_path / "n5.json"
    save_catalog(cat, path, fmt="json")
    back = load_catalog(path)
    assert (back.n, back.method, back.count) == (5, "direct", TABLE1[5])
    assert (back.generated, back.tool) == (cat.generated, cat.tool)
    assert back.collections == cat.collections


# sha256 of the n = 5 direct catalog as save_catalog writes it, with the
# provenance fields fixed; recorded from the writers before they read
# coalition texts from a table
SAVED5_SHA256 = {
    "text": "9c7e31ffa1bd92e5d4534c32274f308ce5f891f006308ae307cbbf18c4632e95",
    "json": "6ca76d66dd4efd5de96a7c5dc72fbda1f00552e0026f5bc227e0c6b7dc969534",
}


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_saved_catalog_bytes_are_pinned(tmp_path, fmt):
    cat = enumerate_mbc(5)
    cat.generated, cat.tool = "2000-01-01T00:00:00Z", "balanced-forge/test"
    path = tmp_path / ("n5." + fmt)
    save_catalog(cat, path, fmt=fmt)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SAVED5_SHA256[fmt]


def test_json_catalog_is_json_dumps_indent_0(tmp_path):
    # save_catalog builds each collection's JSON lines as text; the file must
    # stay what json.dumps writes, escaped header fields and no collections
    # included
    odd = MbcCatalog(3, "direct", [], tool='tool "q" é')
    for cat in [enumerate_mbc(n) for n in (2, 3, 4)] + [odd]:
        path = tmp_path / "c.json"
        save_catalog(cat, path, fmt="json")
        doc = {
            "format": "mbc-catalog", "version": 1, "n": cat.n, "method": cat.method,
            "count": cat.count, "generated": cat.generated, "tool": cat.tool,
            "collections": [
                {"coalitions": [format_coalition(s) for s in b.coalitions],
                 "weights": [str(w) for w in b.weights.values()]}
                for b in cat.collections
            ],
        }
        assert path.read_text() == json.dumps(doc, indent=0)


def _write_one_collection(path, fmt, coalitions, weights, n=2):
    """A one-collection catalog on n players, written by hand."""
    if fmt == "text":
        items = ", ".join("%s:%s" % pair for pair in zip(coalitions, weights))
        path.write_text("mbc-catalog v1 n=%d method=direct count=1\nn=%d; [%s]\n" % (n, n, items))
    else:
        item = {"coalitions": coalitions, "weights": weights}
        doc = {"format": "mbc-catalog", "version": 1, "n": n, "method": "direct",
               "count": 1, "collections": [item]}
        path.write_text(json.dumps(doc))


def test_hand_written_catalog_loads(tmp_path):
    for fmt in ("text", "json"):
        path = tmp_path / ("ok." + fmt)
        _write_one_collection(path, fmt, ["{1}", "{2}", "{1,2}"], ["1/2", "1/2", "1/2"])
        (b,) = load_catalog(path).collections
        assert b.to_text() == "n=2; [{1}:1/2, {2}:1/2, {1,2}:1/2]"


def test_json_catalog_reads_decimal_weights_exactly(tmp_path):
    # the 15 pairs of 6 players at 1/5 each; as binary doubles the five
    # weights of a player sum to 18014398509481985/18014398509481984
    path = tmp_path / "pairs.json"
    pairs = ["{%d,%d}" % pair for pair in combinations(range(1, 7), 2)]
    _write_one_collection(path, "json", pairs, [0.2] * 15, n=6)
    (b,) = load_catalog(path).collections
    assert b.weights == {parse_coalition(c): Fraction(1, 5) for c in pairs}


# one bad collection per case, with a fragment of the error it must raise
BAD_COLLECTIONS = {
    "nonpositive weight": (["{1}", "{2}", "{1,2}"], ["1", "1", "0"], "must be positive"),
    "player sum not 1": (["{1}", "{2}"], ["1", "1/2"], "player 2 weight sum is 1/2"),
    "player above n": (["{1,3}", "{2}"], ["1", "1"], "player id 3 out of range"),
    "duplicate player": (["{1,1}", "{2}"], ["1", "1"], "duplicate player 1"),
    "repeated coalition": (["{1,2}", "{1,2}"], ["1", "1"], "duplicate coalition {1,2}"),
    "zero denominator": (["{1,2}"], ["1/0"], "zero denominator"),
}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("case", sorted(BAD_COLLECTIONS))
def test_load_rejects_bad_collection(tmp_path, fmt, case):
    coalitions, weights, message = BAD_COLLECTIONS[case]
    path = tmp_path / ("bad." + fmt)
    _write_one_collection(path, fmt, coalitions, weights)
    with pytest.raises(ValueError, match=re.escape(message)):
        load_catalog(path)


@pytest.mark.parametrize(
    "coalitions, weights, message",
    [
        (["{1}", "{2}", "{1,2}"], ["1", "1"], "3 coalitions but 2 weights"),
        (["{1}", "{2}"], ["1", "1", "1"], "2 coalitions but 3 weights"),
        ([3, "{1,2}"], ["1", "1"], "coalition must be text"),
        (["{1,2}"], [None], "bad weight None"),
        (["{1,2}"], [[1]], "bad weight [1]"),
        ("{1,2}", ["1"], "lists"),
        (["{1,2}"], None, "lists"),
    ],
)
def test_load_rejects_malformed_json_item(tmp_path, coalitions, weights, message):
    path = tmp_path / "bad.json"
    _write_one_collection(path, "json", coalitions, weights)
    with pytest.raises(CatalogError, match=re.escape(message)):
        load_catalog(path)
    doc = json.loads(path.read_text())
    doc["collections"] = [[coalitions, weights]]
    path.write_text(json.dumps(doc))
    with pytest.raises(CatalogError, match="must be a JSON object"):
        load_catalog(path)


def test_item_memo_keys_keep_every_check(tmp_path):
    # the text reader keys an item by its text and the line's n, so an item
    # read on 3 players is parsed again on 2
    path = tmp_path / "two.mbc"
    path.write_text(
        "mbc-catalog v1 n=3 method=direct count=2\n"
        "n=3; [{1,2}:1, {3}:1]\n"
        "n=2; [{1,2}:1, {3}:1]\n"
    )
    with pytest.raises(CatalogError, match=re.escape("collection 2: player id 3 out of range")):
        load_catalog(path)
    # the JSON reader keys only pairs of strings, so true after 1, equal as
    # dict keys, is still refused
    path = tmp_path / "two.json"
    doc = {"format": "mbc-catalog", "version": 1, "n": 2, "method": "direct", "count": 2,
           "collections": [{"coalitions": ["{1}", "{2}"], "weights": [1, 1]},
                           {"coalitions": ["{1}", "{2}"], "weights": [1, True]}]}
    path.write_text(json.dumps(doc))
    with pytest.raises(CatalogError, match="collection 2: .*a boolean is not a number"):
        load_catalog(path)


def test_text_catalog_keeps_provenance(tmp_path):
    path = tmp_path / "c.mbc"
    cat = enumerate_mbc(3)
    cat.tool = "my tool 1.0"
    with pytest.raises(ValueError, match="whitespace"):
        save_catalog(cat, path)
    cat.generated, cat.tool = "", "my-tool/1.0"
    save_catalog(cat, path)
    back = load_catalog(path)
    assert (back.generated, back.tool) == ("", "my-tool/1.0")
    # only a missing value is filled in
    empty = MbcCatalog(3, "direct", [], generated="", tool="")
    assert (empty.generated, empty.tool) == ("", "")
    assert MbcCatalog(3, "direct", []).tool == enumeration.TOOL
    cat.tool = ["x"]
    for fmt in ("text", "json"):
        with pytest.raises(ValueError, match="tool must be a string"):
            save_catalog(cat, path, fmt=fmt)


@pytest.mark.parametrize("value", [["x"], 1, None, True])
def test_json_catalog_provenance_must_be_strings(tmp_path, value):
    path = tmp_path / "c.json"
    save_catalog(enumerate_mbc(2), path, fmt="json")
    doc = json.loads(path.read_text())
    doc["tool"] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(CatalogError, match="tool=.* is not a string"):
        load_catalog(path)
    del doc["tool"]
    path.write_text(json.dumps(doc))
    assert load_catalog(path).tool == enumeration.TOOL


def test_save_rejects_unknown_format(tmp_path):
    with pytest.raises(ValueError):
        save_catalog(enumerate_mbc(2), tmp_path / "x", fmt="yaml")


def test_load_rejects_bad_header(tmp_path):
    path = tmp_path / "bad"
    path.write_text("something-else v1 n=2 method=direct count=0\n")
    with pytest.raises(CatalogError):
        load_catalog(path)


@pytest.mark.parametrize(
    "fields",
    [
        "n=+2 method=direct count=0_1",
        "n=2 method=direct count=+1",
        "n=2 method=direct count=0_1",
        "n=\u0662 method=direct count=1",  # an Arabic-Indic 2
        "n=2 method=direct count=",
    ],
)
def test_load_rejects_header_numbers_that_are_not_plain_digits(tmp_path, fields):
    path = tmp_path / "bad"
    path.write_text("mbc-catalog v1 %s\nn=2; [{1,2}:1]\n" % fields, encoding="utf-8")
    with pytest.raises(CatalogError, match="bad header fields"):
        load_catalog(path)


@pytest.mark.parametrize(
    "line",
    [
        "n=+2; [{1}:1, {2}:1]",
        "n=2; [{+1}:1, {2}:1]",
        "n=2; [{1}:1, {0_2}:1]",
        "n=\u0662; [{1}:1, {2}:1]",  # an Arabic-Indic 2
    ],
)
def test_load_rejects_body_numbers_that_are_not_plain_digits(tmp_path, line):
    path = tmp_path / "bad"
    path.write_text("mbc-catalog v1 n=2 method=direct count=1\n%s\n" % line, encoding="utf-8")
    with pytest.raises(CatalogError, match="collection 1"):
        load_catalog(path)


@pytest.mark.parametrize(
    "fields",
    [
        "n=3 n=2 method=direct count=1",
        "n=2 method=direct method=direct count=1",
        "n=2 method=direct count=1 count=1",
    ],
)
def test_load_rejects_repeated_header_key(tmp_path, fields):
    path = tmp_path / "bad"
    path.write_text("mbc-catalog v1 %s\nn=2; [{1,2}:1]\n" % fields)
    with pytest.raises(CatalogError, match="repeated"):
        load_catalog(path)
    # the same catalog with each key once loads
    path.write_text("mbc-catalog v1 n=2 method=direct count=1\nn=2; [{1,2}:1]\n")
    assert len(load_catalog(path).collections) == 1


def test_load_rejects_version_mismatch(tmp_path):
    path = tmp_path / "bad"
    path.write_text("mbc-catalog v2 n=2 method=direct count=0\n")
    with pytest.raises(CatalogError):
        load_catalog(path)


def test_load_rejects_count_mismatch(tmp_path):
    cat = enumerate_mbc(2)
    path = tmp_path / "n2.mbc"
    save_catalog(cat, path)
    lines = path.read_text().splitlines()
    lines[0] = lines[0].replace("count=2", "count=3")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CatalogError):
        load_catalog(path)


@pytest.mark.parametrize("count", [3, "2", None])
def test_load_rejects_json_count_mismatch(tmp_path, count):
    path = tmp_path / "n2.json"
    save_catalog(enumerate_mbc(2), path, fmt="json")
    doc = json.loads(path.read_text())
    doc["count"] = count
    path.write_text(json.dumps(doc))
    with pytest.raises(CatalogError, match="header count="):
        load_catalog(path)


def test_load_rejects_disorder(tmp_path):
    cat = enumerate_mbc(2)
    path = tmp_path / "n2.mbc"
    save_catalog(cat, path)
    lines = path.read_text().splitlines()
    lines[2], lines[3] = lines[3], lines[2]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CatalogError):
        load_catalog(path)


def test_load_rejects_foreign_players(tmp_path):
    path = tmp_path / "bad"
    path.write_text("mbc-catalog v1 n=2 method=direct count=1\nn=3; [{1,2,3}:1]\n")
    # MbcCatalog checks the player count; the loader only reads the line
    with pytest.raises(CatalogError, match=re.escape("n=3; [{1,2,3}:1] does not live on 2 players")):
        load_catalog(path)


@pytest.mark.parametrize("field, value", [("n", "2"), ("n", 0), ("collections", 5)])
def test_load_rejects_bad_json_fields(tmp_path, field, value):
    path = tmp_path / "n2.json"
    save_catalog(enumerate_mbc(2), path, fmt="json")
    doc = json.loads(path.read_text())
    doc[field] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(CatalogError):
        load_catalog(path)


def test_load_rejects_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "mbc-catalog", "version": 1, "n": 2,')
    with pytest.raises(CatalogError):
        load_catalog(path)


def test_uniform_enumeration_counts():
    # multisets of p edges drawn from the C(n,k) k-subsets
    assert len(enumerate_uniform(4, 2, 2, False)) == 21
    assert len(enumerate_uniform(4, 2, 2, True)) == 3
    assert len(enumerate_uniform(3, 3, 1, True)) == 1


def test_proper_enumeration():
    assert [h.edges for h in enumerate_proper(2, 2)] == [(3,), (1, 2), (1, 3), (2, 3), (3, 3)]
    with pytest.raises(ValueError, match="^p_max must be >= 1, got 0$"):
        enumerate_proper(2, 0)
    for p_max in (True, 2.0, "2"):
        with pytest.raises(ValueError, match="^p_max must be an int, got %r$" % (p_max,)):
            enumerate_proper(2, p_max)


def test_proper_enumeration_is_lazy():
    # 65,535 nonempty edges on 16 nodes: the first items come from the
    # first heads, while a level built whole would hold about 2 * 10^9
    # multisets of two edges
    t0 = time.perf_counter()
    first = [h.edges for h in islice(enumerate_proper(16, 3), 4)]
    assert time.perf_counter() - t0 < 2
    assert first == [(0xFFFF,), (1, 0xFFFE), (1, 0xFFFF), (2, 0xFFFD)]


def multisets_by_filter(n, edges, p, spanning):
    # the literal definition: every multiset of p edges, kept when it
    # covers the nodes or spanning is not asked for
    kept = []
    for combo in combinations_with_replacement(edges, p):
        cover = 0
        for e in combo:
            cover |= e
        if not spanning or cover == (1 << n) - 1:
            kept.append(combo)
    return kept


def assert_listed_as(found, n, want):
    # same edge tuples in the same order, each equal to the hypergraph the
    # validating constructor builds
    assert [h.edges for h in found] == want
    for h, edges in zip(found, want):
        assert type(h.edges) is tuple
        assert all(type(e) is int for e in h.edges)
        assert h == Hypergraph(n, edges)


def test_uniform_enumeration_matches_the_filter():
    shapes = [(n, k, p) for n in range(1, 6) for k in range(1, n + 1) for p in range(1, 5)]
    # heads of 4 and 5 edges, as the benchmark's larger shapes have
    shapes += [(6, k, p) for k in (2, 3) for p in (5, 6)]
    for n, k, p in shapes:
        k_sets = [m for m in range(1, 1 << n) if m.bit_count() == k]
        for spanning in (False, True):
            want = multisets_by_filter(n, k_sets, p, spanning)
            assert_listed_as(enumerate_uniform(n, k, p, spanning), n, want)


def test_proper_enumeration_matches_the_filter():
    for n in range(1, 5):
        want = [combo for p in range(1, 5)
                for combo in multisets_by_filter(n, range(1, 1 << n), p, True)]
        assert_listed_as(list(enumerate_proper(n, 4)), n, want)


def test_uniform_enumeration_cap(monkeypatch):
    # C(12,6) = 924 edges taken 4 at a time with repetition: C(927,4)
    # multisets, refused before any is built
    with pytest.raises(ValueError, match="would list 30569841225 multisets"):
        enumerate_uniform(12, 6, 4, True)
    # the cap bounds count_total, the count before the spanning filter
    monkeypatch.setattr(enumeration, "MAX_ENUMERATION", 21)
    assert len(enumerate_uniform(4, 2, 2, True)) == 3
    monkeypatch.setattr(enumeration, "MAX_ENUMERATION", 20)
    with pytest.raises(ValueError, match="would list 21 multisets"):
        enumerate_uniform(4, 2, 2, True)


def test_uniform_enumeration_validation():
    with pytest.raises(ValueError):
        enumerate_uniform(3, 4, 1, False)
    with pytest.raises(ValueError):
        enumerate_uniform(3, 0, 1, False)
    with pytest.raises(ValueError):
        enumerate_uniform(3, 2, 0, False)
    # a bool or float size is refused, not read as 1 or 2
    with pytest.raises(ValueError, match="k must be an int, got True"):
        enumerate_uniform(3, True, 2, False)
    with pytest.raises(ValueError, match="p must be an int, got 2.0"):
        enumerate_uniform(3, 2, 2.0, True)
    with pytest.raises(ValueError, match="k must be an int, got '2'"):
        enumerate_uniform(3, "2", 2, True)


def test_minimally_uniform_triangle():
    found = enumerate_minimally_uniform(3, 2, 3)
    assert [h.edges for h in found] == [(0b011, 0b101, 0b110)]
