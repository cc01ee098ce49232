"""Generation engines: minimal balanced collections three ways, and
exhaustive labeled enumeration of uniform multihypergraphs.

The direct engine and the duality engine share nothing but the theorem
they are checked against: direct works on incidence ranks and exact
weights, duality enumerates minimally regular exact k-covers (the duals
of minimally k-uniform hypergraphs, taken directly on the player set so
node relabelings of the primal side never materialize) and converts them
through from_regular_hypergraph. The brute-force oracle is the third,
definition-literal route.
"""
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from itertools import combinations, combinations_with_replacement
from math import isqrt

from . import __version__
from .core import (
    check_players,
    coalitions_of,
    format_coalition,
    full_mask,
    parse_coalition,
    parse_weight,
)
from .hypergraph import Hypergraph, is_minimally_uniform
from .balanced import (
    BalancedCollection,
    find_balancing_weights,
    from_regular_hypergraph,
    is_minimal_balanced_oracle,
    parse_collection,
)
from ._kernel import KERNEL, direct_search, cover_search
from ._simplex import rank_of_masks

TOOL = "balanced-forge/%s" % __version__

# known counts of minimal balanced collections by player count
TABLE1 = {1: 1, 2: 2, 3: 6, 4: 42, 5: 1292, 6: 200214, 7: 132422036}


# Largest |det| of an n x n 0/1 matrix, Hadamard's maximal determinant
# problem (OEIS A003432). The weights of a minimal balanced collection solve
# a nonsingular square 0/1 minor of its incidence matrix, so the lcm of their
# denominators divides that minor and is at most MAX_DET[n]. The tests
# recompute the values for n <= 5 by exhaustion.
MAX_DET = {2: 1, 3: 2, 4: 3, 5: 5, 6: 9}


def k_max(n):
    """Smallest integer at least (n+1)^((n+1)/2) / 2^n, computed exactly.

    Weight denominators of a minimal balanced collection divide the
    determinant of an n x n 0/1 matrix, and this Hadamard-type bound caps
    those determinants; sweeping regularities 1..k_max(n) in the duality
    route is therefore exhaustive. Values: 2, 2, 4, 7, 15 for n = 2..6,
    against the exact maxima MAX_DET[n] = 1, 2, 3, 5, 9.
    """
    check_players(n)
    a = (n + 1) ** (n + 1)
    return isqrt(a - 1) // (1 << n) + 1


class CatalogError(ValueError):
    """Malformed catalog file, version mismatch, or failed validation."""


class MbcCatalog:
    """Canonically sorted, duplicate-free list of minimal balanced collections.

    Each entry keeps its weights as the kernels emit them and core_mbc
    scans them: integer numerators over one denominator. _scan holds
    core_mbc's packed index of those numerators. It is None until the
    first core_mbc call on the catalog builds it, and core_mbc builds it
    again when collections no longer equals the list it was built from.
    """

    __slots__ = ("n", "method", "collections", "generated", "tool", "diagnostics", "_scan")

    METHODS = ("direct", "duality", "oracle")

    def __init__(self, n, method, collections, generated=None, tool=None, diagnostics=None):
        check_players(n)
        if method not in self.METHODS:
            raise ValueError("method must be one of %s" % (self.METHODS,))
        cols = sorted(collections, key=lambda b: b.coalitions)
        for a, b in zip(cols, cols[1:]):
            if a.coalitions == b.coalitions:
                raise ValueError("duplicate collection %s" % (a.to_text(),))
        for b in cols:
            if b.n != n:
                raise ValueError("collection %s does not live on %d players" % (b.to_text(), n))
        self.n = n
        self.method = method
        self.collections = cols
        self.generated = generated or time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        self.tool = tool or TOOL
        self.diagnostics = diagnostics or {}
        self._scan = None

    @property
    def count(self):
        return len(self.collections)

    def coalition_sets(self):
        """Frozen set of the coalition tuples, the route-comparison key."""
        return frozenset(b.coalitions for b in self.collections)


def _direct_subtree(args):
    n, first = args
    return direct_search(n, first)


def _threads_default():
    raw = os.environ.get("BALANCED_FORGE_THREADS", "")
    return int(raw) if raw.strip() else os.cpu_count() or 1


def enumerate_mbc(n, threads=None):
    """All minimal balanced collections on n players, 2 <= n <= 7.

    Subtrees of the search split by the first chosen coalition and run on
    a process pool for n >= 6 (BALANCED_FORGE_THREADS or the thread
    argument caps workers); results are merged and sorted, so the catalog
    is identical however the work was scheduled.

    Diagnostics on the returned catalog name the kernel ("compiled" or
    "pure") and give the wall time of the search and of building and
    sorting the collections, in seconds (search_s, build_s).
    """
    check_players(n)
    if not 2 <= n <= 7:
        raise ValueError("enumerate_mbc supports 2 <= n <= 7, got %d" % n)
    if threads is None:
        threads = _threads_default()
    if threads < 1:
        raise ValueError(
            "threads (argument or BALANCED_FORGE_THREADS) must be >= 1, got %r" % (threads,)
        )
    start = time.perf_counter()
    if n >= 6 and threads > 1:
        tasks = [(n, first) for first in range(1, 1 << n)]
        raw = []
        with ProcessPoolExecutor(max_workers=min(threads, len(tasks))) as pool:
            for chunk in pool.map(_direct_subtree, tasks):
                raw.extend(chunk)
    else:
        raw = direct_search(n)
    searched = time.perf_counter()
    cols = [BalancedCollection._trusted(n, masks, nums, den) for masks, nums, den in raw]
    catalog = MbcCatalog(n, "direct", cols)
    catalog.diagnostics = {
        "kernel": KERNEL,
        "search_s": searched - start,
        "build_s": time.perf_counter() - searched,
    }
    return catalog


def enumerate_mbc_oracle(n):
    """Definition-literal engine: test every coalition subset of size <= n.

    The size cap is the classical bound |B| <= n for minimal balanced
    collections (their incidence vectors are independent); the criterion
    itself is the proper-subcollection oracle, nothing rank-based.
    """
    if not 2 <= n <= 5:
        raise ValueError("oracle enumeration supports 2 <= n <= 5, got %d" % n)
    univ = coalitions_of(n)
    cols = []
    for size in range(1, n + 1):
        for combo in combinations(univ, size):
            if is_minimal_balanced_oracle(n, combo):
                w = find_balancing_weights(n, combo)
                cols.append(BalancedCollection(n, w))
    return MbcCatalog(n, "oracle", cols)


def enumerate_uniform(n, k, p, spanning):
    """All labeled multisets of p k-subsets of {1..n}; optionally spanning.

    Emitted in non-decreasing canonical edge order, each as a Hypergraph.
    """
    check_players(n)
    if not 1 <= k <= n:
        raise ValueError("edge size k=%d infeasible for n=%d" % (k, n))
    if p < 1:
        raise ValueError("size p must be >= 1, got %d" % p)
    edges = [m for m in range(1, 1 << n) if m.bit_count() == k]
    return list(_multisets(n, edges, p, spanning))


def enumerate_proper(n, p_max):
    """Proper hypergraphs on n nodes with 1..p_max edges, lazily.

    Every spanning multiset of nonempty edges, by size and then in
    non-decreasing canonical edge order.
    """
    check_players(n)
    if p_max < 1:
        raise ValueError("size bound p_max must be >= 1, got %d" % p_max)
    nonempty = range(1, 1 << n)
    return (h for p in range(1, p_max + 1) for h in _multisets(n, nonempty, p, True))


def _multisets(n, edges, p, spanning):
    full = full_mask(n)
    for combo in combinations_with_replacement(edges, p):
        if spanning:
            cover = 0
            for e in combo:
                cover |= e
            if cover != full:
                continue
        yield Hypergraph(n, combo)


def enumerate_minimally_uniform(n, k, p):
    """Spanning k-uniform multihypergraphs with no uniform induced part."""
    return [h for h in enumerate_uniform(n, k, p, True) if is_minimally_uniform(h)]


def mbc_via_duality(n, kmax=None):
    """Minimal balanced collections through the hypergraph duality route.

    For every regularity k = 1..kmax, enumerate the minimally regular
    exact k-covers of the player set (each is the dual of a minimally
    k-uniform hypergraph of size n, with the primal node count equal to
    the cover's multiset size), convert through from_regular_hypergraph,
    validate minimality, and deduplicate. kmax defaults to MAX_DET[n], the
    largest weight denominator lcm a minimal balanced collection on n
    players can have, which makes the sweep exhaustive; k_max(n) is a
    looser bound.

    Minimality is validated by incidence rank alone. from_regular_hypergraph
    already checks strictly positive weights that sum to 1 per player, so
    the support is balanced by construction and the balancedness LP of
    is_minimal_balanced would always succeed.

    Diagnostics on the returned catalog record how often any collection
    was produced more than once (multiplicity histogram; expected all-1,
    each collection arising only at k = lcm of its weight denominators)
    and how many covers failed the minimality validation. That count is 0
    for n <= 5, but not at n = 6: k = 2 yields 150 minimally 2-regular
    covers whose support has a balanced proper subcollection, e.g.
    {1},{2},{1,2},{3,4},{3,5,6},{4,5,6} contains {1,2}:1, {3,4}:1/2,
    {3,5,6}:1/2, {4,5,6}:1/2. The validation is what keeps them out.
    """
    check_players(n)
    if not 2 <= n <= 6:
        raise ValueError("duality route supports 2 <= n <= 6, got %d" % n)
    if kmax is None:
        kmax = MAX_DET[n]
    if kmax < 1:
        raise ValueError("kmax must be >= 1, got %r" % (kmax,))
    seen = {}
    times_produced = {}
    rejected = 0
    for k in range(1, kmax + 1):
        for masks, mults in cover_search(n, k):
            edges = []
            for m, c in zip(masks, mults):
                edges.extend([m] * c)
            bc = from_regular_hypergraph(Hypergraph(n, edges))
            # balanced by construction, so independence decides minimality
            if rank_of_masks(bc.coalitions, n) != len(bc.coalitions):
                rejected += 1
                continue
            key = bc.coalitions
            times_produced[key] = times_produced.get(key, 0) + 1
            if key not in seen:
                seen[key] = bc
    hist = {}
    for c in times_produced.values():
        hist[c] = hist.get(c, 0) + 1
    return MbcCatalog(
        n,
        "duality",
        list(seen.values()),
        diagnostics={"multiplicity_histogram": hist, "rejected": rejected, "k_max": kmax},
    )


HEADER_PREFIX = "mbc-catalog"
FORMAT_VERSION = "v1"


def save_catalog(catalog, path, fmt="text"):
    """Write `mbc-catalog v1` text (one collection per line) or its JSON mirror.

    The JSON file is json.dumps(document, indent=0). Coalition and weight
    texts hold only digits, braces, commas and slashes, which JSON writes
    as they are, so each collection's lines are built as text and spliced
    into the encoded header fields.
    """
    if fmt == "text":
        lines = [
            "%s %s n=%d method=%s count=%d"
            % (HEADER_PREFIX, FORMAT_VERSION, catalog.n, catalog.method, catalog.count)
        ]
        lines.append("# generated=%s tool=%s" % (catalog.generated, catalog.tool))
        lines.extend(b.to_text() for b in catalog.collections)
        data = "\n".join(lines) + "\n"
    elif fmt == "json":
        data = json.dumps(
            {
                "format": HEADER_PREFIX,
                "version": 1,
                "n": catalog.n,
                "method": catalog.method,
                "count": catalog.count,
                "generated": catalog.generated,
                "tool": catalog.tool,
                "collections": [],
            },
            indent=0,
        )
        items = [
            '{\n"coalitions": [\n"%s"\n],\n"weights": [\n"%s"\n]\n}'
            % ('",\n"'.join(map(format_coalition, b.coalitions)), '",\n"'.join(b.weight_texts()))
            for b in catalog.collections
        ]
        if items:
            # data ends with the empty list: "collections": []\n}
            data = data[: -len("]\n}")] + "\n" + ",\n".join(items) + "\n]\n}"
    else:
        raise ValueError("fmt must be text or json, got %r" % (fmt,))
    with open(path, "w") as fh:
        fh.write(data)


def load_catalog(path):
    """Read either catalog format back, validating every invariant.

    Each collection goes through the validating constructor. The loaders
    check the file rules (header, count, canonical order), and MbcCatalog
    checks player counts and duplicates. A coalition given twice in one
    collection, and a JSON collection whose coalitions and weights lists
    differ in length, are rejected; every rejection raises CatalogError
    naming the collection.
    """
    with open(path) as fh:
        data = fh.read()
    if data.lstrip().startswith("{"):
        return _load_catalog_json(data)
    return _load_catalog_text(data)


def _load_catalog_text(data):
    lines = [ln for ln in data.splitlines() if ln.strip()]
    if not lines:
        raise CatalogError("empty catalog file")
    head = lines[0].split()
    if len(head) < 5 or head[0] != HEADER_PREFIX:
        raise CatalogError("bad header: %r" % lines[0])
    if head[1] != FORMAT_VERSION:
        raise CatalogError("unsupported catalog version %r" % head[1])
    fields = {}
    for tok in head[2:]:
        key, _, val = tok.partition("=")
        fields[key] = val
    try:
        n = int(fields["n"])
        count = int(fields["count"])
        method = fields["method"]
    except (KeyError, ValueError):
        raise CatalogError("bad header fields: %r" % lines[0])
    generated = tool = None
    body = []
    for ln in lines[1:]:
        if ln.startswith("#"):
            for tok in ln[1:].split():
                key, _, val = tok.partition("=")
                if key == "generated":
                    generated = val
                elif key == "tool":
                    tool = val
            continue
        try:
            body.append(parse_collection(ln))
        except ValueError as exc:
            raise CatalogError("collection %d: %s" % (len(body) + 1, exc)) from None
    return _checked_catalog(n, method, count, body, generated, tool)


def _checked_catalog(n, method, count, body, generated, tool):
    if len(body) != count:
        raise CatalogError("header count=%r but %d collections" % (count, len(body)))
    for a, b in zip(body, body[1:]):
        if a.coalitions >= b.coalitions:
            raise CatalogError("collections out of canonical order")
    try:
        return MbcCatalog(n, method, body, generated=generated, tool=tool)
    except ValueError as exc:
        raise CatalogError(str(exc))


def _load_catalog_json(data):
    try:
        obj = json.loads(data)
    except json.JSONDecodeError as exc:
        raise CatalogError("bad JSON: %s" % exc)
    if obj.get("format") != HEADER_PREFIX:
        raise CatalogError("not a catalog document")
    if obj.get("version") != 1:
        raise CatalogError("unsupported catalog version %r" % obj.get("version"))
    n = obj["n"]
    try:
        check_players(n)
    except ValueError as exc:
        raise CatalogError(str(exc))
    items = obj["collections"]
    if not isinstance(items, list):
        raise CatalogError("collections must be a list")
    body = []
    for item in items:
        try:
            body.append(_json_collection(item, n))
        except ValueError as exc:
            raise CatalogError("collection %d: %s" % (len(body) + 1, exc)) from None
    return _checked_catalog(
        n, obj["method"], obj["count"], body, obj.get("generated"), obj.get("tool")
    )


def _json_collection(item, n):
    if not isinstance(item, dict):
        raise CatalogError("a collection must be a JSON object")
    coalitions, weights = item.get("coalitions"), item.get("weights")
    if not (isinstance(coalitions, list) and isinstance(weights, list)):
        raise CatalogError("a collection needs coalitions and weights lists")
    if len(coalitions) != len(weights):
        raise CatalogError("%d coalitions but %d weights" % (len(coalitions), len(weights)))
    return BalancedCollection(
        n, [(parse_coalition(c, n), parse_weight(w)) for c, w in zip(coalitions, weights)]
    )
