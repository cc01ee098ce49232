"""The four benchmark workloads, their seeded inputs and their exact checks.

Every workload is a closed loop with one client: the next op starts only
after the previous one finished and was checked. Only the calls into the
package are timed; generating inputs and checking outputs are not.

`run` makes one op's calls and returns (seconds, outputs); `check` returns
None when every output was exactly right, and otherwise what was wrong.
"""
import hashlib
import os
import random
import shutil
from math import lcm
from time import perf_counter as clock

from balanced_forge import counting as C, decomposition as D, enumeration as E
from balanced_forge import games as G, hypergraph as HG

# Counts and digests of the direct catalogs at the reference commit. The
# digest is the sha256 of the catalog's `to_text()` lines joined by "\n",
# so a missing collection or one changed weight both show.
CATALOG_COUNT = {4: 42, 5: 1292}
CATALOG_DIGEST = {
    4: "83d8f1ac766c11c8f82d6092538af1d814f44fd182b5fe9df0b99ab105bf9a89",
    5: "8478cbca3b55f202ee13c06d5f77e613ade9d9873d2ce42292df0e3e98c152d8",
}

# Regularity bound of the n=5 duality route in `routes`. k=1..3 yields 1016
# of the 1292 collections in about 2-3 s on the pure kernel; k=5 would give
# all 1292 but takes about 20 s per call.
ROUTES_KMAX = 3

# In `core`, one seeded game of every block of CORE_BLOCK (at each player
# count) gets v(N) = n * magnitude, which guarantees a nonempty core:
# paying every player `magnitude` meets every coalition's worth. Plain
# `random_game` draws essentially never have a nonempty core, so the
# nonempty share is at least 1/CORE_BLOCK and in practice equal to it.
CORE_MAGNITUDE = 100
CORE_BLOCK = 4


def catalog_digest(catalog):
    text = "\n".join(b.to_text() for b in catalog.collections)
    return hashlib.sha256(text.encode()).hexdigest()


def check_catalog(catalog, n):
    if catalog.count != CATALOG_COUNT[n]:
        return "n=%d catalog has %d collections, want %d" % (n, catalog.count, CATALOG_COUNT[n])
    if catalog_digest(catalog) != CATALOG_DIGEST[n]:
        return "n=%d catalog content differs from the reference" % n
    return None


def same_catalog(got, want, label):
    if (got.n, got.method, got.count) != (want.n, want.method, want.count):
        return "%s: header (n, method, count) %r, want %r" % (
            label, (got.n, got.method, got.count), (want.n, want.method, want.count))
    if (got.generated, got.tool) != (want.generated, want.tool):
        return "%s: provenance fields not preserved" % label
    if got.collections != want.collections:
        return "%s: collections differ" % label
    return None


def check_balanced(bc, n):
    """Exact recheck of a balanced collection: positive weights, sums of 1."""
    if bc.n != n:
        return "collection on %d players, want %d" % (bc.n, n)
    if any(bc.weights[s] <= 0 for s in bc.coalitions):
        return "nonpositive weight in %s" % bc.to_text()
    for i in range(n):
        if sum(bc.weights[s] for s in bc.coalitions if s >> i & 1) != 1:
            return "player %d weights do not sum to 1 in %s" % (i + 1, bc.to_text())
    return None


def check_verdict(game, verdict, catalog_sets=None):
    """Recheck a core verdict's certificate in exact arithmetic."""
    n = game.n
    vn = game.v[(1 << n) - 1]
    if verdict.nonempty:
        x = verdict.payment
        if len(x) != n or sum(x) != vn:
            return "payment %r does not sum to v(N)=%s" % (x, vn)
        for s in range(1, 1 << n):
            if sum(x[i] for i in range(n) if s >> i & 1) < game.v[s]:
                return "payment %r violates coalition %d" % (x, s)
        return None
    bc = verdict.collection
    problem = check_balanced(bc, n)
    if problem:
        return problem
    eff = sum(bc.weights[s] * game.v[s] for s in bc.coalitions)
    if eff != verdict.efficiency or not eff > vn:
        return "efficiency %s (recomputed %s) does not exceed v(N)=%s" % (
            verdict.efficiency, eff, vn)
    if catalog_sets is not None and bc.coalitions not in catalog_sets:
        return "certificate %s is not in the minimal balanced catalog" % bc.to_text()
    return None


class Workload:
    name = None
    # set-ups per run; set-up time is the median of these
    setup_reps = 3
    # at least this many ops per measured phase
    min_ops = 2
    # layers that must record spans in the timed phase / in set-up
    expected = ()
    expected_setup = ()
    # each op runs in a forked child of the set-up process
    isolate = False
    # (kernel function, arguments) this workload sends to the search kernels
    kernel_inputs = ()
    # traced runs also measure the memory held per n=5 catalog entry
    measures_catalog_bytes = False

    def __init__(self, seed):
        self.seed = seed
        self.rng = random.Random("%s/%d" % (self.name, seed))
        self.tallies = {}

    def setup(self):
        raise NotImplementedError

    def next_input(self):
        return None

    def run(self, state, inp):
        """Timed calls into the package; returns (seconds, outputs)."""
        raise NotImplementedError

    def check(self, state, inp, out):
        """None, or a description of the first wrong output."""
        raise NotImplementedError

    def close(self):
        pass


class Catalog(Workload):
    name = "catalog"
    setup_reps = 9
    expected = ("kernel.direct_search", "enumeration.enumerate_mbc",
                "enumeration.save_catalog", "enumeration.load_catalog")
    expected_setup = ("kernel.direct_search", "enumeration.enumerate_mbc")
    kernel_inputs = (("direct_search", (5,)),)
    measures_catalog_bytes = True

    def __init__(self, seed):
        super().__init__(seed)
        self.workdir = os.path.join(".perfbench_work", "catalog-%d" % os.getpid())

    def setup(self):
        """Fresh work directory and a checked n=4 round trip in both formats."""
        shutil.rmtree(self.workdir, ignore_errors=True)
        os.makedirs(self.workdir)
        cat = E.enumerate_mbc(4)
        problem = check_catalog(cat, 4)
        for fmt in ("text", "json"):
            path = os.path.join(self.workdir, "setup.%s" % fmt)
            E.save_catalog(cat, path, fmt)
            problem = problem or same_catalog(E.load_catalog(path), cat, fmt)
        if problem:
            raise RuntimeError("set-up check failed: %s" % problem)
        return None

    def next_input(self):
        formats = ["text", "json"]
        self.rng.shuffle(formats)
        tag = self.rng.getrandbits(32)
        return [(fmt, os.path.join(self.workdir, "%08x.%s" % (tag, fmt))) for fmt in formats]

    def run(self, state, inp):
        t0 = clock()
        cat = E.enumerate_mbc(5)
        for fmt, path in inp:
            E.save_catalog(cat, path, fmt)
        loaded = [E.load_catalog(path) for _, path in inp]
        dt = clock() - t0
        return dt, (cat, loaded)

    def check(self, state, inp, out):
        cat, loaded = out
        problem = check_catalog(cat, 5)
        for (fmt, path), got in zip(inp, loaded):
            problem = problem or same_catalog(got, cat, "%s round trip" % fmt)
            os.remove(path)
        return problem

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.workdir))
        except OSError:
            pass


class Core(Workload):
    name = "core"
    min_ops = 8
    expected = ("games.core_lp", "games.core_mbc", "balanced.efficiency",
                "simplex.simplex_min", "simplex.solve_square")
    expected_setup = ("kernel.direct_search", "enumeration.enumerate_mbc")
    kernel_inputs = (("direct_search", (5,)),)
    measures_catalog_bytes = True

    def __init__(self, seed):
        super().__init__(seed)
        self.tallies = {"verdicts": 0, "nonempty": 0}
        self._block = {}

    def setup(self):
        cat = E.enumerate_mbc(5)
        problem = check_catalog(cat, 5)
        if problem:
            raise RuntimeError("set-up check failed: %s" % problem)
        return cat, cat.coalition_sets()

    def _game(self, n):
        """Seeded game; one per block of CORE_BLOCK gets a raised v(N)."""
        block, pos = self._block.get(n, (None, CORE_BLOCK))
        if pos == CORE_BLOCK:
            block, pos = self.rng.randrange(CORE_BLOCK), 0
        raised = pos == block
        self._block[n] = (block, pos + 1)
        g = G.random_game(n, self.rng.getrandbits(64), CORE_MAGNITUDE)
        if raised:
            worths = {m: g.v[m] for m in range(1, 1 << n)}
            worths[(1 << n) - 1] = n * CORE_MAGNITUDE
            g = G.Game(n, worths)
        return g, raised

    def next_input(self):
        return self._game(5), self._game(6)

    def run(self, state, inp):
        catalog, _ = state
        (g5, _), (g6, _) = inp
        t0 = clock()
        lp5 = G.core_lp(g5)
        mbc5 = G.core_mbc(g5, catalog)
        lp6 = G.core_lp(g6)
        dt = clock() - t0
        return dt, (lp5, mbc5, lp6)

    def check(self, state, inp, out):
        _, sets5 = state
        (g5, raised5), (g6, raised6) = inp
        lp5, mbc5, lp6 = out
        if lp5.nonempty != mbc5.nonempty:
            return "n=5 core_lp and core_mbc disagree"
        if not lp5.nonempty and lp5.efficiency != mbc5.efficiency:
            return "n=5 largest violation %s (LP) != %s (catalog)" % (
                lp5.efficiency, mbc5.efficiency)
        if (raised5 and not lp5.nonempty) or (raised6 and not lp6.nonempty):
            return "a game with v(N) = n * magnitude was judged to have an empty core"
        for game, verdict, sets in ((g5, lp5, sets5), (g5, mbc5, sets5), (g6, lp6, None)):
            problem = check_verdict(game, verdict, sets)
            if problem:
                return "n=%d: %s" % (game.n, problem)
        self.tallies["verdicts"] += 2
        self.tallies["nonempty"] += lp5.nonempty + lp6.nonempty
        return None


class Routes(Workload):
    name = "routes"
    isolate = True
    expected = ("kernel.cover_search", "enumeration.mbc_via_duality",
                "enumeration.enumerate_mbc_oracle", "balanced.is_balanced",
                "balanced.find_balancing_weights", "balanced.from_regular_hypergraph",
                "simplex.simplex_min")
    expected_setup = ("kernel.direct_search", "enumeration.enumerate_mbc")
    kernel_inputs = (
        (("direct_search", (4,)), ("direct_search", (5,)))
        + tuple(("cover_search", (4, k)) for k in range(1, E.k_max(4) + 1))
        + tuple(("cover_search", (5, k)) for k in range(1, ROUTES_KMAX + 1))
    )

    def setup(self):
        """Direct catalogs, and the n=5 collections the duality bound reaches."""
        c4 = E.enumerate_mbc(4)
        c5 = E.enumerate_mbc(5)
        problem = check_catalog(c4, 4) or check_catalog(c5, 5)
        if problem:
            raise RuntimeError("set-up check failed: %s" % problem)
        reach5 = [
            b for b in c5.collections
            if lcm(*(b.weights[s].denominator for s in b.coalitions)) <= ROUTES_KMAX
        ]
        return c4.collections, reach5

    def run(self, state, inp):
        t0 = clock()
        dual4 = E.mbc_via_duality(4)
        dual5 = E.mbc_via_duality(5, kmax=ROUTES_KMAX)
        oracle4 = E.enumerate_mbc_oracle(4)
        dt = clock() - t0
        return dt, (dual4, dual5, oracle4)

    def check(self, state, inp, out):
        want4, reach5 = state
        dual4, dual5, oracle4 = out
        if dual4.collections != want4:
            return "n=4 duality route differs from the direct catalog"
        if dual5.collections != reach5:
            return "n=5 duality route (k <= %d) has %d collections, want the %d direct ones" % (
                ROUTES_KMAX, dual5.count, len(reach5))
        if oracle4.collections != want4:
            return "n=4 oracle route differs from the direct catalog"
        return None


def _random_proper(rng, n, p):
    """p random nonempty edges on n nodes, drawn until they cover every node."""
    while True:
        edges = [rng.randrange(1, 1 << n) for _ in range(p)]
        cover = 0
        for e in edges:
            cover |= e
        if cover == (1 << n) - 1:
            return HG.Hypergraph(n, sorted(edges))


def _random_uniform(rng, n, k, p):
    """p random k-subsets of n nodes; each edge first takes uncovered nodes."""
    uncovered = list(range(n))
    rng.shuffle(uncovered)
    edges = []
    for j in range(p):
        if j == p - 1 and len(uncovered) > k:
            raise ValueError("%d edges of size %d cannot cover %d nodes" % (p, k, n))
        take = uncovered[:k]
        del uncovered[:k]
        rest = [x for x in range(n) if x not in take]
        take += rng.sample(rest, k - len(take))
        edges.append(sum(1 << x for x in take))
    return HG.Hypergraph(n, sorted(edges))


def _minimally_uniform_block(edges, block):
    """Restriction to `block` is uniform and no smaller restriction is."""
    def uniform(a):
        return len({(e & a).bit_count() for e in edges}) == 1

    if not uniform(block):
        return False
    sub = (block - 1) & block
    while sub:
        if uniform(sub):
            return False
        sub = (sub - 1) & block
    return True


def _valid_partitions(edges, n):
    """Every partition of the nodes into minimally uniform blocks."""
    good = {}
    out = []

    def rec(remaining, acc):
        if not remaining:
            out.append(frozenset(acc))
            return
        low = remaining & -remaining
        rest = remaining ^ low
        sub = rest
        while True:
            block = low | sub
            ok = good.get(block)
            if ok is None:
                ok = good[block] = _minimally_uniform_block(edges, block)
            if ok:
                rec(remaining ^ block, acc + [block])
            if not sub:
                break
            sub = (sub - 1) & rest

    rec((1 << n) - 1, [])
    return out


# Every op takes the next shape from each list below, so the mix of op
# sizes is the same for every seed and only the drawn edges differ.
UNIFORM_SHAPES = [(n, k, p) for n in (6, 7, 8) for k in (2, 3, 4) for p in (3, 4, 5)
                  if k * p >= n]
PROPER_SHAPES = [(n, p) for n in (6, 7, 8) for p in (3, 4, 5, 6)]
# (n, k, p) for count_spanning against enumerate_uniform, each listing at
# most 20000 multisets
COUNT_TRIPLES = [
    (n, k, p)
    for n in range(2, 8)
    for k in range(1, n + 1)
    for p in range(1, 7)
    if C.multiset_coefficient(C.binomial(n, k), p) <= 20000
]


class Hyper(Workload):
    name = "hyper"
    setup_reps = 9
    min_ops = 8
    pool_size = 1200
    expected = ("hypergraph.dual", "hypergraph.is_minimally_uniform",
                "hypergraph.is_minimally_regular", "decomposition.decompose",
                "decomposition.decompose_all", "counting.count_spanning",
                "enumeration.enumerate_uniform")

    def setup(self):
        """A seeded pool of inputs, drawn afresh each set-up, cycled by the ops."""
        rng = random.Random("hyper-pool/%d" % self.seed)
        pool = []
        for i in range(self.pool_size):
            n, p = PROPER_SHAPES[i % len(PROPER_SHAPES)]
            proper = _random_proper(rng, n, p)
            uniform = _random_uniform(rng, *UNIFORM_SHAPES[i % len(UNIFORM_SHAPES)])
            pool.append((proper, uniform, COUNT_TRIPLES[i % len(COUNT_TRIPLES)]))
        self.cursor = 0
        return pool

    def next_input(self):
        self.cursor += 1
        return self.cursor - 1

    def run(self, pool, i):
        proper, uniform, (n, k, p) = pool[i % len(pool)]
        t0 = clock()
        duals = []
        for h in (proper, uniform):
            d = h.dual()
            duals.append((HG.is_minimally_uniform(h), HG.is_minimally_regular(d), d.dual()))
        first = D.decompose(uniform)
        every = D.decompose_all(uniform)
        counted = C.count_spanning(n, k, p)
        listed = E.enumerate_uniform(n, k, p, True)
        dt = clock() - t0
        return dt, (duals, first, every, counted, len(listed))

    def check(self, pool, i, out):
        proper, uniform, triple = pool[i % len(pool)]
        duals, first, every, counted, listed = out
        for h, (mu, mr, back) in zip((proper, uniform), duals):
            if mu != mr:
                return "%s: minimally uniform %s but dual minimally regular %s" % (
                    h.to_text(), mu, mr)
            if back != h:
                return "%s: dual of the dual differs" % h.to_text()
        want = _valid_partitions(uniform.edges, uniform.n)
        got = [frozenset(part.blocks) for part in every]
        if len(set(got)) != len(got) or set(got) != set(want):
            return "%s: decompose_all found %d partitions, want %d" % (
                uniform.to_text(), len(got), len(want))
        if not every or first != every[0]:
            return "%s: decompose is not the first of decompose_all" % uniform.to_text()
        if counted != listed:
            return "count_spanning%r = %d but enumeration lists %d" % (triple, counted, listed)
        return None


WORKLOADS = {w.name: w for w in (Catalog, Core, Routes, Hyper)}

