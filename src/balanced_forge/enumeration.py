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
from bisect import bisect_left
from concurrent.futures import ProcessPoolExecutor
from functools import reduce
from itertools import combinations, combinations_with_replacement
from math import isqrt
from operator import or_

from . import __version__
from .core import (
    check_int,
    check_players,
    coalitions_of,
    format_coalition,
    full_mask,
    parse_digits,
    read_json,
)
from .counting import count_total
from .hypergraph import Hypergraph, is_minimally_uniform
from .balanced import (
    BalancedCollection,
    _cached_weights,
    from_regular_hypergraph,
    is_minimal_balanced_oracle,
    parse_collection,
    parse_item,
)
from ._kernel import KERNEL, direct_search, cover_search
from ._simplex import rank_of_masks

TOOL = "balanced-forge/%s" % __version__

# known counts of minimal balanced collections by player count
TABLE1 = {1: 1, 2: 2, 3: 6, 4: 42, 5: 1292, 6: 200214, 7: 132422036}


# Most multisets enumerate_uniform will list, counted before the spanning
# filter (count_total). A four-edge hypergraph in the list holds about
# 130 bytes, so 10**6 of them take about 130 MB; the benchmark lists at
# most 20,000 and `verify prop2` 8,855.
MAX_ENUMERATION = 10**6


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
    core_mbc's index: every entry's numerators over the catalog's least
    common denominator, packed in catalog order. It is None until the
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
        if generated is None:
            generated = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        self.generated = generated
        self.tool = TOOL if tool is None else tool
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
    # the CPUs this process may run on, where the platform can tell
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def enumerate_mbc(n, threads=None):
    """All minimal balanced collections on n players, 2 <= n <= 6.

    n = 7 is refused: its 132,422,036 collections need about 33 GB in
    memory. The kernels' direct_search(7, first) searches one subtree.

    Subtrees of the search split by the first chosen coalition and run on
    a process pool for n >= 6 (the threads argument caps workers; by
    default one per CPU this process may run on); results are merged and
    sorted, so the catalog is identical however the work was scheduled.

    Diagnostics on the returned catalog name the kernel ("compiled" or
    "pure"), the number of processes that searched (workers) and the wall
    time of the search and of building and sorting the collections, in
    seconds (search_s, build_s).
    """
    check_players(n)
    if not 2 <= n <= 6:
        why = "enumerate_mbc supports 2 <= n <= 6, got %d" % n
        if n == 7:
            why += (
                "; the n=7 catalog holds 132,422,036 collections, about 33 GB in "
                "memory, so search n=7 one subtree at a time with "
                "_kernel.direct_search(7, first)"
            )
        raise ValueError(why)
    if threads is None:
        threads = _threads_default()
    check_int("threads", threads, 1)
    start = time.perf_counter()
    workers = min(threads, (1 << n) - 1) if n >= 6 else 1
    if workers > 1:
        tasks = [(n, first) for first in range(1, 1 << n)]
        raw = []
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for chunk in pool.map(_direct_subtree, tasks):
                raw.extend(chunk)
    else:
        raw = direct_search(n)
    searched = time.perf_counter()
    cols = [BalancedCollection._trusted(n, masks, nums, den) for masks, nums, den in raw]
    catalog = MbcCatalog(n, "direct", cols)
    catalog.diagnostics = {
        "kernel": KERNEL,
        "workers": workers,
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
    check_players(n)
    if not 2 <= n <= 5:
        raise ValueError("oracle enumeration supports 2 <= n <= 5, got %d" % n)
    univ = coalitions_of(n)
    cols = []
    for size in range(1, n + 1):
        for combo in combinations(univ, size):
            if is_minimal_balanced_oracle(n, combo):
                cols.append(_cached_weights(n, combo))  # combo is ascending
    return MbcCatalog(n, "oracle", cols)


def enumerate_uniform(n, k, p, spanning):
    """All labeled multisets of p k-subsets of {1..n}; optionally spanning.

    Emitted in non-decreasing canonical edge order, each as a Hypergraph.
    The whole list is built, so a shape whose count_total exceeds
    MAX_ENUMERATION raises ValueError before any multiset is listed.
    """
    check_players(n)
    total = count_total(n, k, p)  # k and p must be ints >= 0
    if not 1 <= k <= n:
        raise ValueError("edge size k=%d infeasible for n=%d" % (k, n))
    check_int("p", p, 1)
    if total > MAX_ENUMERATION:
        raise ValueError(
            "enumerate_uniform(%d, %d, %d) would list %d multisets before the "
            "spanning filter, above the cap of %d" % (n, k, p, total, MAX_ENUMERATION)
        )
    edges = [m for m in range(1, 1 << n) if m.bit_count() == k]
    return list(_multisets(n, edges, p, spanning))


def enumerate_proper(n, p_max):
    """Proper hypergraphs on n nodes with 1..p_max edges, lazily.

    Every spanning multiset of nonempty edges, by size and then in
    non-decreasing canonical edge order.
    """
    check_players(n)
    check_int("p_max", p_max, 1)
    nonempty = range(1, 1 << n)
    return (h for p in range(1, p_max + 1) for h in _multisets(n, nonempty, p, True))


def _multisets(n, edges, p, spanning):
    # A multiset spans exactly when its last edge holds need, every node
    # its first p - 1 edges (its head) miss, so each head is completed from
    # the edges holding need instead of OR-ing every multiset. edges must
    # be ascending: combinations_with_replacement then lists the heads in
    # lexicographic order, and each head's last edges, from its own last
    # edge on, ascend, so the multisets come out lexicographic. n passed
    # check_players and every edge is a mask in 1..full, so each
    # Hypergraph is built as Hypergraph._trusted builds it, inline.
    full = full_mask(n)
    holding = {}  # need -> the edges that hold it, ascending
    new = object.__new__
    for head in combinations_with_replacement(edges, p - 1):
        need = full ^ reduce(or_, head, 0) if spanning else 0
        lasts = holding.get(need)
        if lasts is None:
            lasts = holding[need] = [e for e in edges if e & need == need]
        for e in lasts[bisect_left(lasts, head[-1]) if head else 0 :]:
            h = new(Hypergraph)
            h.n = n
            h.edges = head + (e,)
            yield h


def enumerate_minimally_uniform(n, k, p):
    """Spanning k-uniform multihypergraphs with no uniform induced part."""
    return [h for h in enumerate_uniform(n, k, p, True) if is_minimally_uniform(h)]


def mbc_via_duality(n, kmax=None):
    """Minimal balanced collections through the hypergraph duality route.

    For every regularity k = 1..kmax, enumerate the minimally regular
    exact k-covers of the player set (each is the dual of a minimally
    k-uniform hypergraph of size n, with the primal node count equal to
    the cover's multiset size), convert through from_regular_hypergraph
    and validate minimality. kmax defaults to MAX_DET[n], the largest
    weight denominator lcm a minimal balanced collection on n players can
    have, which makes the sweep exhaustive; k_max(n) is a looser bound.

    Minimality is validated by incidence rank alone. from_regular_hypergraph
    already checks strictly positive weights that sum to 1 per player, so
    the support is balanced by construction and the balancedness LP of
    is_minimal_balanced would always succeed.

    Each collection arises once, at k equal to its weight denominator.
    A cover whose multiplicities share a factor g > 1 with k holds, at
    one g-th of every multiplicity, a (k/g)-regular proper sub-multiset,
    which cover_search rejects; so every accepted cover has
    gcd(k, multiplicities) = 1 and is its collection's weights times k.
    MbcCatalog's duplicate check would raise if one arose twice.

    Diagnostics on the returned catalog name the kernel and count the
    covers that failed the minimality validation. That count is 0 for
    n <= 5, but not at n = 6: k = 2 yields 150 minimally 2-regular
    covers whose support has a balanced proper subcollection, e.g.
    {1},{2},{1,2},{3,4},{3,5,6},{4,5,6} contains {1,2}:1, {3,4}:1/2,
    {3,5,6}:1/2, {4,5,6}:1/2. The validation is what keeps them out.
    """
    check_players(n)
    if not 2 <= n <= 6:
        raise ValueError("duality route supports 2 <= n <= 6, got %d" % n)
    if kmax is None:
        kmax = MAX_DET[n]
    check_int("kmax", kmax, 1)
    cols = []
    rejected = 0
    for k in range(1, kmax + 1):
        for masks, mults in cover_search(n, k):
            # n passed check_players and every kernel mask is in 1..full
            edges = tuple(m for m, c in zip(masks, mults) for _ in range(c))
            bc = from_regular_hypergraph(Hypergraph._trusted(n, edges))
            # balanced by construction, so independence decides minimality
            if rank_of_masks(bc.coalitions, n) != len(bc.coalitions):
                rejected += 1
                continue
            cols.append(bc)
    return MbcCatalog(
        n, "duality", cols, diagnostics={"kernel": KERNEL, "rejected": rejected, "k_max": kmax}
    )


HEADER_PREFIX = "mbc-catalog"
FORMAT_VERSION = "v1"


def save_catalog(catalog, path, fmt="text"):
    """Write `mbc-catalog v1` text (one collection per line) or its JSON mirror.

    The JSON file is json.dumps(document, indent=0). Coalition and weight
    texts hold only digits, braces, commas and slashes, which JSON writes
    as they are, so each collection's lines are built as text and spliced
    into the encoded header fields. Catalogs repeat their items, so each
    item's text is built once per file and then read from a memo.

    The provenance fields, generated and tool, must be strings; the text
    header separates its fields by blanks, so there they may hold none.
    """
    for name in ("generated", "tool"):
        value = getattr(catalog, name)
        if not isinstance(value, str):
            raise ValueError("catalog %s must be a string, got %r" % (name, value))
        if fmt == "text" and any(ch.isspace() for ch in value):
            raise ValueError("catalog %s %r holds whitespace, which the text "
                             "header cannot keep" % (name, value))
    memo = {}
    if fmt == "text":
        lines = [
            "%s %s n=%d method=%s count=%d"
            % (HEADER_PREFIX, FORMAT_VERSION, catalog.n, catalog.method, catalog.count)
        ]
        lines.append("# generated=%s tool=%s" % (catalog.generated, catalog.tool))
        lines.extend(b.to_text(memo) for b in catalog.collections)
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
            % (
                '",\n"'.join(map(format_coalition, b.coalitions)),
                '",\n"'.join(b.weight_texts(memo)),
            )
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

    Each collection goes through the one validator, _checked_items; its
    items are parsed once per file and then read from a memo, since
    catalogs repeat their items. The loaders also check the file rules
    (header, count, canonical order, string provenance in JSON), and
    MbcCatalog checks player counts and duplicates. A coalition given twice
    in one collection, and a JSON collection whose coalitions and weights
    lists differ in length, are rejected; every rejection raises
    CatalogError naming the collection.
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
        if key in fields:
            raise CatalogError("header key %r repeated" % key)
        fields[key] = val
    try:
        n, count = (parse_digits(fields.get(key, "")) for key in ("n", "count"))
        method = fields["method"]
    except (ValueError, KeyError):
        raise CatalogError("bad header fields: %r" % lines[0]) from None
    generated = tool = None
    body = []
    memo = {}
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
            body.append(parse_collection(ln, memo))
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
        obj = read_json(data, "catalog", ("method", "count", "collections"))
    except ValueError as exc:
        raise CatalogError(str(exc)) from None
    if obj.get("format") != HEADER_PREFIX:
        raise CatalogError("not a catalog document")
    # JSON true and 1.0 equal 1 in Python, so the type is checked first
    version, count = obj.get("version"), obj["count"]
    if type(version) is not int or version != 1:
        raise CatalogError("unsupported catalog version %r" % (version,))
    if type(count) is not int:
        raise CatalogError("header count=%r is not an integer" % (count,))
    for key in ("generated", "tool"):
        if key in obj and not isinstance(obj[key], str):
            raise CatalogError("%s=%r is not a string" % (key, obj[key]))
    n = obj["n"]
    items = obj["collections"]
    if not isinstance(items, list):
        raise CatalogError("collections must be a list")
    body = []
    memo = {}
    for item in items:
        try:
            body.append(_json_collection(item, n, memo))
        except ValueError as exc:
            raise CatalogError("collection %d: %s" % (len(body) + 1, exc)) from None
    return _checked_catalog(n, obj["method"], count, body, obj.get("generated"), obj.get("tool"))


def _json_collection(item, n, memo):
    """The collection of one JSON item. memo maps a (coalition, weight) pair
    of strings to its parse_item; a pair holding any other value, a number
    or a bool, is parsed each time."""
    if not isinstance(item, dict):
        raise CatalogError("a collection must be a JSON object")
    coalitions, weights = item.get("coalitions"), item.get("weights")
    if not (isinstance(coalitions, list) and isinstance(weights, list)):
        raise CatalogError("a collection needs coalitions and weights lists")
    if len(coalitions) != len(weights):
        raise CatalogError("%d coalitions but %d weights" % (len(coalitions), len(weights)))
    parsed = []
    for c, w in zip(coalitions, weights):
        if type(c) is str and type(w) is str:
            item = memo.get((c, w))
            if item is None:
                item = memo[c, w] = parse_item(c, w, n)
        else:
            item = parse_item(c, w, n)
        parsed.append(item)
    return BalancedCollection._from_items(n, parsed)
