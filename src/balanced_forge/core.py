"""Shared primitives: bit-indexed coalitions and exact combinatorial counts.

A coalition over players 1..n is an int bitmask with bit i-1 standing for
player i, so the canonical order of coalitions is plain numeric order and
player 1 is the least significant bit. Worths elsewhere are Fractions;
the weights of a balanced collection are integer numerators over their
least common denominator, as to_common_denominator gives them.
"""
import re
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm

MAX_PLAYERS = 20


def check_players(n: int) -> None:
    """Raise ValueError unless 1 <= n <= MAX_PLAYERS."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError("player count must be an int, got %r" % (n,))
    if not 1 <= n <= MAX_PLAYERS:
        raise ValueError("player count %d outside 1..%d" % (n, MAX_PLAYERS))


def full_mask(n: int) -> int:
    return (1 << n) - 1


def to_common_denominator(values):
    """(numerators, d): the rationals as ints over their least common denominator.

    Each value is numerators[i] / d exactly; d >= 1. Values may be ints,
    Fractions, or anything Fraction() accepts.
    """
    ratios = [
        (v if isinstance(v, (int, Fraction)) else Fraction(v)).as_integer_ratio() for v in values
    ]
    d = lcm(*[q for _, q in ratios])
    return [p * (d // q) for p, q in ratios], d


def binomial(n: int, k: int) -> int:
    """C(n, k); zero when k > n or k < 0."""
    if k < 0 or k > n:
        return 0
    return comb(n, k)


def rising_factorial(n: int, p: int) -> int:
    """n(n+1)...(n+p-1), exactly p factors; 1 when p = 0.

    The inline convention in the source text has p+1 factors, but its own
    worked numbers (3*4*5/3! = 10 from a 3-element ground set) force p
    factors; this is the convention used throughout counting.
    """
    out = 1
    for i in range(p):
        out *= n + i
    return out


def multiset_coefficient(m: int, p: int) -> int:
    """Number of p-multisets from m distinct items: C(m+p-1, p)."""
    if p == 0:
        return 1
    if m <= 0:
        return 0
    return comb(m + p - 1, p)


def coalitions_of(n: int) -> list:
    """All 2^n - 1 nonempty coalitions in ascending canonical order."""
    check_players(n)
    return list(range(1, 1 << n))


def players_of(mask: int) -> tuple:
    """1-based player ids of a coalition, ascending."""
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def _format_players(mask: int) -> str:
    return "{%s}" % ",".join(map(str, players_of(mask)))


# the text of every coalition of up to 8 players, read by the catalog writers
_COALITION_TEXT = tuple(_format_players(mask) for mask in range(256))


def format_coalition(mask: int) -> str:
    """Canonical text form, e.g. {1,3,4}."""
    if 0 <= mask < 256:
        return _COALITION_TEXT[mask]
    return _format_players(mask)


def parse_coalition(text: str, n: int = 0) -> int:
    """Parse {1,3,4} (spaces tolerated) into a bitmask.

    With n > 0, player ids above n are rejected. The empty form {} parses
    to 0; callers that require nonempty coalitions must check. A catalog
    holds few distinct coalition texts, so the last 4096 distinct
    (text, n) pairs used are kept parsed.
    """
    if not isinstance(text, str):
        raise ValueError("coalition must be text like {1,3}, got %r" % (text,))
    return _parse_coalition(text, n)


@lru_cache(maxsize=4096)
def _parse_coalition(text, n):
    s = text.strip()
    if not (s.startswith("{") and s.endswith("}")):
        raise ValueError("coalition must be brace-delimited: %r" % text)
    body = s[1:-1].strip()
    if not body:
        return 0
    mask = 0
    for part in body.split(","):
        p = int(part.strip())
        if p < 1 or (n and p > n) or p > MAX_PLAYERS:
            raise ValueError("player id %d out of range in %r" % (p, text))
        if mask >> (p - 1) & 1:
            raise ValueError("duplicate player %d in %r" % (p, text))
        mask |= 1 << (p - 1)
    return mask


def json_number(f):
    """A rational as JSON output writes it: an int if integral, else "a/b"."""
    return int(f) if f.denominator == 1 else str(f)


def parse_weight(value) -> Fraction:
    """Fraction(value), with every malformed value raising ValueError.

    Fraction() alone raises ZeroDivisionError for 1/0 and TypeError for
    None. Catalogs repeat a few dozen weight texts, so the last 4096
    distinct values used are kept converted.
    """
    try:
        return _parse_weight(value)
    except ZeroDivisionError:
        raise ValueError("weight %r has a zero denominator" % (value,)) from None
    except (TypeError, OverflowError) as exc:
        raise ValueError("bad weight %r: %s" % (value, exc)) from None


@lru_cache(maxsize=4096)
def _parse_weight(value):
    return Fraction(value)


_UNNESTED = re.compile(r"[^{}]*(?:\{[^{}]*\}[^{}]*)*")
_TOP_COMMA = re.compile(r",(?![^{}]*\})")


def split_top_level(text: str) -> list:
    """Split a list body on the commas outside braces.

    '{1,2}:1/2, {3}:1' gives ['{1,2}:1/2', ' {3}:1']. A blank text gives
    []; empty items are kept, so that the caller's item parser rejects
    them.
    """
    if not text.strip():
        return []
    if _UNNESTED.fullmatch(text):
        # with balanced, unnested braces, a comma is outside them iff the
        # next brace after it is not a closing one
        return _TOP_COMMA.split(text)
    parts = []
    depth = start = 0
    for i, ch in enumerate(text):
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return parts


def split_line(text: str, label: str = "") -> tuple:
    """(n, items) of a one-line form `n=<k>; <label>[<items>]`.

    The one reader of the header and the bracketed body, shared by the
    weighted and weightless collection forms (label "") and the
    hypergraph form (label "edges="). Blanks around `n`, `=`, `;` and the
    body are free. n must be a player count; items are the body's
    split_top_level pieces, which the caller parses by its own item rule.
    """
    head, _, body = text.partition(";")
    name, eq, count = head.partition("=")
    if not eq or name.strip() != "n":
        raise ValueError("line must start with n=<players>;: %r" % text)
    n = int(count)
    check_players(n)
    body = body.strip()
    if not (body.startswith(label + "[") and body.endswith("]")):
        raise ValueError("missing %s[...] in %r" % (label, text))
    return n, split_top_level(body[len(label) + 1:-1])
