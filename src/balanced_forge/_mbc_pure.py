"""Interpreted search kernels, the reference for the C twins in _speedups.c.

Both kernels return plain ints so the compiled and pure variants are
interchangeable: weights come back as (numerators, denominator) pairs or
(multiplicities, k), never as Fraction. Both twins raise ValueError on the
same arguments: n outside 1..7, first outside 0..2^n - 1, k < 1, or a
cover state space (max(k, 2)^n encodings) above 2^28.

direct_search walks coalitions in ascending mask order, keeping the
chosen incidence rows in fraction-free integer echelon form together
with the residual of the all-ones vector against them. The residual
carries representation coefficients, so the moment it hits zero the
unique candidate weights can be read off; the subtree below such a node
is pruned either way, because any extension keeps the all-ones vector in
the span and forces weight zero on every later member.

Each node holds its candidates, the later coalitions, as (mask, row,
pivot, divisor). Entering a child reduces each candidate once, against
the one newly chosen row and only where that row's pivot entry is
nonzero; a candidate whose incidence part vanishes is dependent on the
chosen rows and is dropped for the whole subtree. Unreduced rows are
shared between parent and child. A row is 2n + 1 entries: n incidence
entries, the all-ones coefficient and one coefficient slot per depth. A
candidate's own coefficient is not stored, since it always equals the
divisor kept with the row (below); choosing the row at depth d writes
it, as D_d, into slot n + 1 + d. The row is one Python int, its entry i
the signed FIELD-bit field at bit FIELD * i, so the int is the sum of
entry[i] << FIELD * i: scaling and adding rows scales and adds every
field at once, as long as each stays inside +-2^(FIELD - 1). The
incidence part vanishes when the low n fields are zero, the pivot is the
field of the lowest set bit, and an entry is read by a shift after a
bias of 2^(FIELD - 1) is added to every field.

Elimination is fraction-free with exact division (Bareiss, Math. Comp.
22, 1968). Let D_0 = 1 and D_k be the pivot entry of the k-th chosen
row. By Sylvester's identity a row reduced at depth k holds, in each
column, the minor of the chosen rows and itself on their k pivot columns
and that column, and D_k is the k x k minor of the chosen rows on their
pivot columns. Reducing a row r of level k against the newly chosen row
R, with a and b their entries at R's pivot, gives (a * r - b * R) / D_k,
and its level is then k + 1. A row whose entry at a new pivot is 0 would
become r * D_{k+1} / D_k, so it is kept as it is, with the divisor D_j
of the level j it was stored at; reducing it later against R is
(a * r - b * R) / D_j on the stored entries, as the factor D_k / D_j of
both r and b cancels. A chosen row is first rescaled to its node's level
by row * D_k / D_j; its own coefficient is then D_k, the minor whose own
column has a single 1, and D_k is what its depth slot receives. A row's
own coefficient starts at 1 = D_0 and becomes a after a reduction
(a * r - b * R) / D_j, since R is 0 in r's own column, so it is the
row's divisor throughout. The residual is a row of the all-ones vector,
kept with its divisor in the same way, and for the same reason that
divisor is its all-ones coefficient, slot n, where it is read: no candidate
row has an entry there. Every division is exact: the quotient's entries are
minors, hence integers, and when a divisor divides every field it
divides the packed int, field by field.

Every entry is bounded by ENTRY_MAX = 4096, in both twins. A row
reduced at depth k combines the k chosen masks and its own, 0/1 rows
(the residual: the chosen masks and the all-ones row), and each of its
entries is a minor of order k + 1 of the 0/1 matrix they form with one
more column, incidence or coefficient. A coefficient column has a
single 1, so it only lowers the order, and k + 1 <= n + 1 <= 8. By
Hadamard's inequality a matrix of order 8 with entries in [-1, 1] has
determinant at most 8^(8/2) = 4096 in absolute value. So a product or
combination the search forms, a * r - b * R or a row times D_k, stays
below 2 * 4096^2 = 2^25, inside a signed 32-bit field here and far
inside int64 in _speedups.c, which checks the bound on every row it
stores. No gcd is taken during the search: the weights of a solved child
that passes the sign check are divided by their gcd only when its triple
is emitted. _speedups.c runs the same elimination, so the twins hold the
same rows at every node and emit the same triples in the same order.

Each child of a node is first tested by a Farkas rule. The child's
chosen coalitions are the node's and the child's own mask; let A be
these plus the node's later candidates, before the newly chosen row
reduces them. Every collection emitted at or below the child is a
subcollection B of A that holds the chosen coalitions and has positive
weights summing to 1 for each player. If every member of A that holds
player j also holds player i, the sums for i and j over B differ by the
weights of B's members holding i but not j, so those weights are 0:
y = e_i - e_j is a Farkas certificate that no such member has a positive
weight. Hence the child is skipped, before its row is copied or its
residual reduced, when a chosen coalition holds such an i but not j.
That covers a player j in no member of A too: every pair (j, i) is then
tied, and the child's own mask, nonempty and without j, holds some
i != j.

A child that passes is solved when its reduced residual's incidence part
vanishes: with a and b the entries of its row and of the node's residual
at its pivot, the low n fields of a * rho - b * row are zero. Scaling
either row changes nothing there, so the stored rows are tested, before
the row is rescaled and the residual reduced (if b is 0 the child keeps
the node's residual, which is not solved). A solved child can emit
only the chosen coalitions themselves, so it is tested again with A
equal to them, and skipped if a chosen coalition holds an i but not a j
that every chosen coalition holding j also holds; every player is in a
chosen coalition, since the all-ones vector is in their span. Only then
are its residual reduced and its weights read off and sign-checked. A
child that is not solved has its residual reduced, and every later
candidate holding such an i but not j is dropped before it is reduced.

A node of depth n - 1, the last level, has only solved children. Its
n - 1 chosen rows are independent, so one column has no pivot, and the
residual and every candidate, zero at each pivot, have incidence parts
nonzero only there: a candidate whose part vanished was dropped, and the
residual's part is not zero, or the node would be solved. So b != 0
and a * rho - b * row has no incidence part. A solved child's chosen
coalitions cover every player, and if every member of A holding j holds
i, so does every chosen coalition, so the first test cuts only what the
second does. The last level therefore tests nothing: the node of depth
n - 2 building its child's list keeps only the later candidates that
pass the second test together with the child's chosen masks, before
reducing them, and the last level rescales each candidate's row,
reduces the residual and emits through the sign check. At n = 5, of the
13,800 children above the last level 6,921 fail the first test and
2,296 of the 2,612 solved ones the second, the lists for the last level
drop 38,150 candidates unreduced, 1,502 children reach it, and 1,292
emit; 13,542 rows are reduced in all, 4,147 of them residuals.

The rule removes only children that emit nothing, and it changes no
row, residual or pivot of a child it keeps, so the DFS order, every
emitted triple, and the bound on the elimination entries (ENTRY_MAX)
are as without it. Player pairs are bits j * n + i of an int: a suffix
OR over the candidate list gives A's pairs with one OR per child above
the last level, and each candidate is tested with a few bitwise
operations. Repeating the candidate filter until nothing more drops
visits the same nodes at n = 5 and in the n = 6 subtrees first = 8 and
24, so it is not done.

cover_search enumerates exact k-covers (multisets of coalitions covering
every player exactly k times, with at most n distinct coalitions) and
rejects any multiset containing a nonempty proper uniform sub-multiset.
Each node branches on the uncovered player with the fewest usable masks:
those that hold the player, avoid every fully covered player and are not
yet decided. For that player's usable masks s_1 < s_2 < ..., branch j
takes s_j with each multiplicity c >= 1 and decides s_1 .. s_j for the
subtree, so every multiset is produced once, and a node where some
uncovered player has no usable mask has no branch (Knuth's Algorithm M,
exact cover with multiplicities, with the minimum-remaining-values choice
of Dancing Links).

Each node carries unc, the mask of its uncovered players, next to their
remaining degrees: the node is a cover when unc is 0. Its branching
player p is the lowest set bit of unc, and p's usable masks are the
subsets s of unc that hold p and exceed floor, the last mask chosen for
p on the path, or 0 if the parent branched on another player. The
branching player changes only when it is covered, so a mask decided at
an ancestor that branched on a player q < p holds q, which is covered,
and lies outside unc anyway; the masks decided for p itself are its
masks up to the last one chosen for it, floor, as each branch decides
the masks before it. Every decided mask inside unc thus holds p, while
every uncovered player is held by equally many subsets of unc, so p has
the fewest usable masks and wins ties as the lowest-numbered: nothing is
counted. A node visits the subsets t of rest = unc without p in
ascending order, t = (t - rest) & rest, and branches on s = t | p when s
exceeds floor. A branch on s adds one copy of s at a time and recurses
after each, with floor s while p stays uncovered and 0 once it is
covered, until a player of s is fully covered and so leaves unc; that
last copy is the largest multiplicity, the least remaining degree among
the players of s, without a scan for it.

A node that already holds n - 1 distinct masks fills the last support
slot. Its child can finish only with unc itself: a finishing mask must
hold every uncovered player and, being usable, avoids the covered ones.
The child takes unc with the common remaining degree c of its players,
so it needs unc usable, that is unc > floor, and those degrees equal;
every other child is skipped, as is each smaller multiplicity of unc,
which would leave players uncovered at the support cap. unc is still
added one copy at a time so that the sub-multiset test sees every step,
and the cover it completes is emitted at once. No node is entered at
depth n: the last slot emits without recursing.

The sub-multiset test is a subset-sum bitset over coverage vectors
encoded in base k, grown one copy at a time, so pruning and the final
minimality decision share one state. The bitset holds every sub-multiset
whose digits stay at most k - 1, whatever order the copies came in, so
the accepted set does not depend on the branching order. Each cover is
returned as the search finds it: covers in DFS order, and the masks of
each in the order they were chosen, with the mask of the last support
slot last. MbcCatalog puts collections in canonical order.
"""
from math import gcd

MAX_STATES = 1 << 28
FIELD = 32  # bits per packed row entry
_HALF = 1 << FIELD - 1
_MASK = (1 << FIELD) - 1


def _check_players(kernel, n):
    if not 1 <= n <= 7:
        raise ValueError("%s kernel supports 1 <= n <= 7, got %d" % (kernel, n))


def _reduce(a, r, b, row, d):
    """(a * r - b * row) / d on packed rows; d divides every field."""
    return (a * r - b * row) // d


def _pair_tables(n):
    """Per mask, its ordered player pairs as bits j * n + i of two ints.

    split[m] has (j, i) when m contains j but not i; lone[m] has (j, i)
    when m contains i but not j. Neither has a pair (j, j).
    """
    nmasks = 1 << n
    split = [0] * nmasks
    lone = [0] * nmasks
    for m in range(1, nmasks):
        for j in range(n):
            for i in range(n):
                bit = 1 << (j * n + i)
                if m >> j & 1 and not m >> i & 1:
                    split[m] |= bit
                if m >> i & 1 and not m >> j & 1:
                    lone[m] |= bit
    return split, lone


def direct_search(n, first=0):
    """Minimal balanced collections as (masks, numerators, denominator).

    With first > 0 only the subtree whose smallest member is `first` is
    searched; first = 0 runs the whole tree. Masks ascend within each
    tuple, and the DFS order is ascending mask-tuple order: candidates are
    tried in ascending order and a solved node is not extended, so no
    emitted tuple is a prefix of another and the list comes out sorted.
    The subtrees for first = 1, 2, ... concatenate to the whole search.
    """
    _check_players("direct", n)
    nmasks = 1 << n
    if not 0 <= first < nmasks:
        raise ValueError("first must be in 0..%d, got %d" % (nmasks - 1, first))
    split, lone = _pair_tables(n)
    low = (1 << FIELD * n) - 1  # the incidence fields
    bias = sum(_HALF << FIELD * i for i in range(2 * n + 1))
    out = []
    chosen = []

    def emit(r2):
        # the chosen masks' weights, read off a solved residual, if positive
        t = r2 + bias
        w = [(t >> FIELD * i & _MASK) - _HALF for i in range(n, n + 1 + len(chosen))]
        if w[0] < 0:
            w = [-x for x in w]
        if max(w[1:]) < 0:
            g = gcd(*w)
            out.append((tuple(chosen), tuple(-x // g for x in w[1:]), w[0] // g))

    def rec(cands, lo, hi, rho, dnode, depth, split_chosen, lone_chosen):
        # dnode is D_depth; each candidate row comes with the divisor of
        # the level it was stored at, and rho's is its all-ones coefficient
        slot = 1 << FIELD * (n + 1 + depth)
        biased = rho + bias
        drho = (biased >> FIELD * n & _MASK) - _HALF
        if depth == n - 1:
            # the last level: every child is solved, and each candidate
            # passed the pair test when the parent built the list
            for m, row, p, drow in cands[lo:hi]:
                s = FIELD * p
                a = ((row >> s) + _HALF & _MASK) - _HALF
                b = (biased >> s & _MASK) - _HALF
                if drow != dnode:
                    row = row * dnode // drow
                    a = a * dnode // drow
                chosen.append(m)
                emit(_reduce(a, rho, b, row + dnode * slot, drho))
                chosen.pop()
            return
        tail = depth == n - 2  # the kids form the last level
        suf = [0] * (len(cands) + 1)  # split pairs of cands[c:]
        for c in range(len(cands) - 1, lo, -1):
            suf[c] = suf[c + 1] | split[cands[c][0]]
        for c in range(lo, hi):
            m, row, p, drow = cands[c]
            sc = split_chosen | split[m]
            lc = lone_chosen | lone[m]
            every = sc | suf[c + 1]
            tied = ~every  # (j, i): every member of A with j has i
            if lc & tied:
                continue  # no positive weights below: cut
            s = FIELD * p
            a = ((row >> s) + _HALF & _MASK) - _HALF  # fields below p are 0
            b = (biased >> s & _MASK) - _HALF
            # solved: the reduced residual's incidence part vanishes
            solved = b and not (a * rho - b * row) & low
            if solved and lc & ~sc:
                continue  # the chosen masks alone need a zero weight
            if drow != dnode:
                row = row * dnode // drow
                a = a * dnode // drow
            row += dnode * slot
            r2 = _reduce(a, rho, b, row, drho) if b else rho
            chosen.append(m)
            if solved:
                emit(r2)
            else:
                kids = []
                for m2, r, q, dr in cands[c + 1 :]:
                    if tail:
                        if (lc | lone[m2]) & ~(sc | split[m2]):
                            continue  # its child fails the pair test
                    elif lone[m2] & tied:
                        continue  # would need weight zero
                    b = ((r + bias) >> s & _MASK) - _HALF
                    if b:
                        r = _reduce(a, r, b, row, dr)
                        if not r & low:
                            continue  # dependent on the chosen rows
                        q = ((r & -r).bit_length() - 1) // FIELD
                        dr = a
                    kids.append((m2, r, q, dr))
                rec(kids, 0, len(kids), r2, a, depth + 1, sc, lc)
            chosen.pop()

    cands = []
    for m in range(1, nmasks):
        row = sum(1 << FIELD * i for i in range(n) if m >> i & 1)
        cands.append((m, row, (m & -m).bit_length() - 1, 1))
    rho0 = sum(1 << FIELD * i for i in range(n + 1))
    if first:
        rec(cands, first - 1, first, rho0, 1, 0, 0, 0)
    else:
        rec(cands, 0, nmasks - 1, rho0, 1, 0, 0, 0)
    return out


def cover_search(n, k):
    """Minimally regular exact k-covers as (masks, multiplicities).

    Covers and the masks within each come in the order found by the
    player-branching search that the module docstring describes. Support
    size is capped at n, the most members a minimal balanced collection
    has, so the cap loses no collection. A cover that survives the uniform
    sub-multiset filter is not always minimal balanced: for n <= 5 it is,
    but at n = 6 and k = 2, 150 of the 10,292 covers have a balanced
    proper subcollection of their support, so callers must validate
    minimality themselves.
    """
    _check_players("cover", n)
    if k < 1:
        raise ValueError("k must be >= 1, got %d" % k)
    nmasks = 1 << n
    base = max(k, 2)
    npos = base ** n
    if npos > MAX_STATES:
        raise ValueError("cover state space too large: base %d, n %d" % (base, n))

    # off[s]: the encoding of one copy of s; vm[s]: the positions where one
    # more copy of s is legal. A singleton {i} may take one where player i's
    # digit is at most k - 2, a larger mask where every member's digit is.
    off = [0] * nmasks
    vm = [0] * nmasks
    for i in range(n):
        span = base ** i
        unit = (1 << span * (k - 1)) - 1
        m = 0
        for start in range(0, npos, span * base):
            m |= unit << start
        off[1 << i] = span
        vm[1 << i] = m
    for s in range(1, nmasks):
        low = s & -s
        if s != low:
            off[s] = off[s ^ low] + off[low]
            vm[s] = vm[s ^ low] & vm[low]

    ones = off[nmasks - 1]
    targets = 0
    for d in range(1, k):
        targets |= 1 << (d * ones)

    players = [[i for i in range(n) if s >> i & 1] for s in range(nmasks)]
    out = []

    def rec(floor, rem, unc, chosen, mults, dp):
        # unc: mask of the uncovered players; floor: the last mask chosen
        # for the branching player, or 0
        if not unc:
            out.append((tuple(chosen), tuple(mults)))
            return
        low = unc & -unc  # the branching player, p
        if len(chosen) == n - 1:
            # last support slot: only unc itself can finish
            c = rem[low.bit_length() - 1]
            if unc <= floor or any(rem[i] != c for i in players[unc]):
                return
            for _ in range(c):
                dp |= (dp & vm[unc]) << off[unc]
                if dp & targets:
                    return
            out.append((tuple(chosen) + (unc,), tuple(mults) + (c,)))
            return
        rest = unc ^ low
        t = 0
        while True:  # s = t | low over the subsets t of rest, ascending
            s = t | low
            t = (t - rest) & rest
            if s > floor:
                rem2 = list(rem)
                unc2 = unc
                dp2 = dp
                chosen.append(s)
                c = 0
                while unc2 == unc:  # until a player of s is fully covered
                    c += 1
                    for i in players[s]:
                        rem2[i] -= 1
                        if not rem2[i]:
                            unc2 ^= 1 << i
                    dp2 |= (dp2 & vm[s]) << off[s]
                    if dp2 & targets:
                        break
                    mults.append(c)
                    rec(s if unc2 & low else 0, rem2, unc2, chosen, mults, dp2)
                    mults.pop()
                chosen.pop()
            if not t:
                return

    rec(0, [k] * n, nmasks - 1, [], [], 1)
    return out
