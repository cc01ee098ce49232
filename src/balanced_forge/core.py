"""Shared primitives: bit-indexed coalitions and exact combinatorial counts.

A coalition over players 1..n is an int bitmask with bit i-1 standing for
player i, so the canonical order of coalitions is plain numeric order and
player 1 is the least significant bit. The worths of a game and the
weights of a balanced collection are each kept as ints over their least
common denominator, as to_common_denominator gives them.

parse_weight is the one reader of a rational from outside the program:
Game, BalancedCollection, to_common_denominator and every file reader
(through read_json for JSON) call it, and no other code hands a caller's
value to Fraction(). It reads text by one grammar, refuses a bool and
caps numerators and denominators at MAX_DIGITS digits.
"""
import json
import re
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from math import comb, lcm

MAX_PLAYERS = 20


def check_int(name: str, value, lo=None, hi=None) -> None:
    """Raise ValueError, naming the argument, unless value is an int in lo..hi.

    A bool is refused, as are a float and a string however integral they
    look. hi needs lo; with neither, only the type is checked.
    """
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError("%s must be an int, got %r" % (name, value))
    if hi is not None:
        if not lo <= value <= hi:
            raise ValueError("%s %d outside %d..%d" % (name, value, lo, hi))
    elif lo is not None and value < lo:
        raise ValueError("%s must be >= %d, got %d" % (name, lo, value))


def check_players(n: int) -> None:
    """Raise ValueError unless n is an int in 1..MAX_PLAYERS."""
    check_int("player count", n, 1, MAX_PLAYERS)


def parse_digits(text: str) -> int:
    """A count or id written in plain ASCII digits, blanks around it allowed.

    int() would also take a sign, underscores and other scripts' digits,
    which no line form or catalog header writes.
    """
    s = text.strip()
    if not (s.isascii() and s.isdigit()):
        raise ValueError("expected plain digits, got %r" % text)
    return int(s)


def full_mask(n: int) -> int:
    return (1 << n) - 1


def to_common_denominator(values):
    """(numerators, d): the rationals as ints over their least common denominator.

    Each value is numerators[i] / d exactly; d >= 1. Each value is read as
    parse_weight reads it, so a bool, a malformed text or a numerator or
    denominator of more than MAX_DIGITS digits raises ValueError. A list
    of plain ints comes back as a fresh list with d = 1 after one look at
    the set of types and one at the largest magnitude, so an integral
    game's worths are stored almost for free; ints and Fractions, exact
    already, are checked against the cap by that one look at the results.
    """
    kinds = set(map(type, values))
    if kinds == {int}:
        nums, d = list(values), 1
    else:
        # ints and Fractions are exact already: the cap is checked below
        exact = values if kinds <= {int, Fraction} else map(parse_weight, values)
        ratios = [v.as_integer_ratio() for v in exact]
        d = lcm(*[q for _, q in ratios])
        nums = [p * (d // q) for p, q in ratios]
    # no value's numerator or denominator is larger than |nums[i]| or d
    if d >= _TOO_LONG or max(map(abs, nums), default=0) >= _TOO_LONG:
        for v in values:
            parse_weight(v)  # raises on the first value past the cap
    return nums, d


def binomial(n: int, k: int) -> int:
    """C(n, k); zero when k > n or k < 0."""
    if k < 0 or k > n:
        return 0
    return comb(n, k)


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
    if mask < 0:
        raise ValueError("negative coalition mask %d" % mask)
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


# the player ids and the text of every coalition of up to 8 players, read by
# the collection validator, from_regular_hypergraph and the catalog writers
_PLAYERS = tuple(players_of(mask) for mask in range(256))
_COALITION_TEXT = tuple("{%s}" % ",".join(map(str, ids)) for ids in _PLAYERS)


def format_coalition(mask: int) -> str:
    """Canonical text form, e.g. {1,3,4}."""
    if 0 <= mask < 256:
        return _COALITION_TEXT[mask]
    return "{%s}" % ",".join(map(str, players_of(mask)))


def parse_coalition(text: str, n: int = 0) -> int:
    """Parse {1,3,4} (spaces tolerated) into a bitmask.

    With n > 0, player ids above n are rejected. The empty form {} parses
    to 0; callers that require nonempty coalitions must check.
    """
    if not isinstance(text, str):
        raise ValueError("coalition must be text like {1,3}, got %r" % (text,))
    s = text.strip()
    if not (s.startswith("{") and s.endswith("}")):
        raise ValueError("coalition must be brace-delimited: %r" % text)
    body = s[1:-1].strip()
    if not body:
        return 0
    mask = 0
    for part in body.split(","):
        p = parse_digits(part)
        if p < 1 or (n and p > n) or p > MAX_PLAYERS:
            raise ValueError("player id %d out of range in %r" % (p, text))
        if mask >> (p - 1) & 1:
            raise ValueError("duplicate player %d in %r" % (p, text))
        mask |= 1 << (p - 1)
    return mask


def json_number(f):
    """A rational as JSON output writes it: an int if integral, else "a/b"."""
    return int(f) if f.denominator == 1 else str(f)


def _reject_constant(name):
    raise ValueError("JSON constant %s is not a number" % name)


def _unique_keys(pairs):
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError("JSON object repeats the key %r" % key)
        obj[key] = value
    return obj


_DECODER = json.JSONDecoder(
    parse_float=Decimal, parse_constant=_reject_constant, object_pairs_hook=_unique_keys
)


def read_json(text: str, what: str, keys: tuple) -> dict:
    """The object of a `what` JSON document holding "n" and every key in keys.

    The one place where JSON input becomes Python values. An integer is
    read as an int and any other number as a Decimal holding exactly the
    digits written, so parse_weight turns 0.1 into 1/10, as it does the
    string "0.1", and 1e400 into 10^400, never into the binary double
    nearest to them. NaN, Infinity and -Infinity raise ValueError naming
    the constant, and so does a number whose exponent Decimal cannot hold.
    A key repeated in any object, at any depth, raises ValueError naming
    it, where json.loads would keep its last value.
    Malformed JSON (json.JSONDecodeError), a document that is not an
    object, a missing key (named, "n" first) and an n that check_players
    rejects raise ValueError too.
    """
    try:
        obj = _DECODER.decode(text)
    except InvalidOperation:  # an exponent beyond +-10^18
        raise ValueError("%s JSON holds a number out of range" % what) from None
    if not isinstance(obj, dict):
        raise ValueError("%s JSON must be an object, got %r" % (what, obj))
    for key in ("n", *keys):
        if key not in obj:
            raise ValueError("%s JSON has no %r key" % (what, key))
    check_players(obj["n"])
    return obj


def parse_weight(value) -> Fraction:
    """Fraction(value), with every malformed value raising ValueError.

    The one reader of a rational from outside the program: weights, the
    worths of a Game and the numbers of every file. Text (and a Decimal,
    as read_json reads a JSON number) is read by one grammar, the `p/q`
    and decimal forms of Fraction() on Python 3.11, so 0.1 is 1/10, and
    any other text is an invalid literal on every Python; a float is its
    binary fraction, and a Fraction is returned as it is. A numerator or
    denominator of more than MAX_DIGITS digits is refused from the digits
    written, before any int is built, and from the value otherwise.
    Fraction() alone raises ZeroDivisionError for 1/0 and TypeError for
    None, and takes a bool (a JSON true or false) as 1 or 0; here all
    three raise ValueError.
    """
    if isinstance(value, bool):
        raise ValueError("bad weight %r: a boolean is not a number" % (value,))
    # False for a value that is not text, None for text outside the grammar,
    # which never reaches Fraction(): its text syntax varies by Python version
    match = isinstance(value, (str, Decimal)) and _NUMBER.fullmatch(str(value))
    if match is None:
        raise ValueError("Invalid literal for Fraction: %r" % (value,))
    try:
        if match:
            f = _text_fraction(*match.groups())
        else:  # a Fraction is immutable, so it is kept as it is
            f = value if type(value) is Fraction else Fraction(value)
    except ZeroDivisionError:
        raise ValueError("weight %r has a zero denominator" % (value,)) from None
    except (TypeError, OverflowError) as exc:
        raise ValueError("bad weight %r: %s" % (value, exc)) from None
    if f is None or max(abs(f.numerator), f.denominator) >= _TOO_LONG:
        # repr() cannot print such an int or Fraction, so its type is named
        raise ValueError("weight %s has more than %d digits in its numerator or denominator"
                         % (repr(value) if match else "of type " + type(value).__name__, MAX_DIGITS))
    return f


# Python's default int-string limit: no longer numerator or denominator prints
MAX_DIGITS = 4300
_TOO_LONG = 10**MAX_DIGITS
# Fraction()'s text syntax: sign, digits, then a denominator or else
# fraction digits and an exponent
_NUMBER = re.compile(r"\s*([-+]?)(?=\d|\.\d)(\d*|\d+(?:_\d+)*)(?:/(\d+(?:_\d+)*)|"
                     r"(?:\.(\d*|\d+(?:_\d+)*))?(?:[eE]([-+]?\d+(?:_\d+)*))?)\s*")


def _text_fraction(sign, whole, over, part, exp):
    """The text's Fraction, or None when it is too long by the lengths alone.

    p/q is too long when p or q has more than MAX_DIGITS digits after its
    leading zeros. A decimal with a nonzero digit is kept * 10^e, kept free
    of leading and trailing zeros: its numerator has at least len(kept) + e
    digits and its denominator those of 2^-e > 10^(-3e/10). A kept of
    more than MAX_DIGITS digits is refused from the digits written, as p
    and q are. So is an exponent of more than MAX_DIGITS digits: no text
    is long enough to bring |e| back below 10^MAX_DIGITS, so it is too
    long whatever its sign.
    """
    whole = whole.replace("_", "")
    if over is not None:
        p, q = whole.lstrip("0") or "0", over.replace("_", "").lstrip("0") or "0"
        return Fraction(int(sign + p), int(q)) if max(len(p), len(q)) <= MAX_DIGITS else None
    part = part.replace("_", "") if part else ""
    digits = (whole + part).lstrip("0")
    if not digits:
        return Fraction(0)
    kept = digits.rstrip("0")
    exp = exp.replace("_", "") if exp else "0"
    power = exp.lstrip("+-").lstrip("0") or "0"
    if max(len(kept), len(power)) > MAX_DIGITS:
        return None
    e = (-int(power) if exp[0] == "-" else int(power)) - len(part) + len(digits) - len(kept)
    if len(kept) + e <= MAX_DIGITS and -3 * e <= 10 * MAX_DIGITS:
        return Fraction(int(sign + kept) * 10 ** max(e, 0), 10 ** max(-e, 0))
    return None


_UNNESTED = re.compile(r"[^{}]*(?:\{[^{}]*\}[^{}]*)*")
_TOP_COMMA = re.compile(r",(?![^{}]*\})")


def split_top_level(text: str) -> list:
    """Split a list body on the commas outside braces.

    '{1,2}:1/2, {3}:1' gives ['{1,2}:1/2', ' {3}:1']. A blank text gives
    []; empty items are kept, so that the caller's item parser rejects
    them. Nested or unbalanced braces raise ValueError.
    """
    if not text.strip():
        return []
    if not _UNNESTED.fullmatch(text):
        raise ValueError("nested or unbalanced braces in %r" % text)
    # with balanced, unnested braces, a comma is outside them iff the next
    # brace after it is not a closing one
    return _TOP_COMMA.split(text)


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
    n = parse_digits(count)
    check_players(n)
    body = body.strip()
    if not (body.startswith(label + "[") and body.endswith("]")):
        raise ValueError("missing %s[...] in %r" % (label, text))
    return n, split_top_level(body[len(label) + 1:-1])
