import random
from decimal import Decimal
from fractions import Fraction
from itertools import product
from math import lcm

import pytest

from balanced_forge.core import (
    binomial,
    multiset_coefficient,
    coalitions_of,
    players_of,
    format_coalition,
    parse_coalition,
    parse_weight,
    read_json,
    split_top_level,
    check_players,
    full_mask,
    to_common_denominator,
)


def test_binomial():
    assert binomial(5, 2) == 10
    assert binomial(5, 0) == 1
    assert binomial(5, 5) == 1
    assert binomial(5, 6) == 0
    assert binomial(5, -1) == 0
    assert binomial(0, 0) == 1


def test_multiset_coefficient():
    assert multiset_coefficient(3, 3) == 10
    assert multiset_coefficient(1, 3) == 1
    assert multiset_coefficient(3, 0) == 1
    assert multiset_coefficient(0, 0) == 1
    assert multiset_coefficient(0, 2) == 0
    # ((m over p)) = C(m+p-1, p)
    for m in range(1, 8):
        for p in range(6):
            assert multiset_coefficient(m, p) == binomial(m + p - 1, p)


def test_masks_and_players():
    assert full_mask(3) == 7
    assert coalitions_of(2) == [1, 2, 3]
    assert players_of(0b101) == (1, 3)
    assert players_of(0) == ()


def test_negative_masks_are_rejected():
    # -1 >> 1 == -1, so an unguarded bit loop would never end
    for f in (players_of, format_coalition):
        with pytest.raises(ValueError, match="negative coalition mask -1"):
            f(-1)


def test_format_parse_round_trip():
    assert format_coalition(0b1101) == "{1,3,4}"
    assert format_coalition(0) == "{}"
    assert parse_coalition("{1,3,4}") == 0b1101
    assert parse_coalition("{ 2 , 3 }") == 0b110
    assert parse_coalition("{}") == 0
    for mask in range(64):
        assert parse_coalition(format_coalition(mask)) == mask
    # masks of up to 8 players come from a table, wider ones are built
    for mask in (*range(300), 0b1101 << 8, (1 << 20) - 1):
        assert format_coalition(mask) == "{%s}" % ",".join(map(str, players_of(mask)))


def test_parse_coalition_errors():
    with pytest.raises(ValueError):
        parse_coalition("1,2")
    with pytest.raises(ValueError):
        parse_coalition("{1,1}")
    with pytest.raises(ValueError):
        parse_coalition("{0}")
    with pytest.raises(ValueError):
        parse_coalition("{4}", 3)
    with pytest.raises(ValueError):
        parse_coalition("{1,}")
    for value in (3, None, ["{1}"]):
        with pytest.raises(ValueError, match="coalition must be text"):
            parse_coalition(value)


def test_parse_weight():
    assert parse_weight("1/2") == parse_weight(" 2/4 ") == Fraction(1, 2)
    assert parse_weight("0.25") == parse_weight(0.25) == Fraction(1, 4)
    assert parse_weight(3) == 3
    with pytest.raises(ValueError, match="zero denominator"):
        parse_weight("1/0")
    # True and 1 share a cache key, so the bool is turned away first
    assert parse_weight(1) == 1 and parse_weight(0) == 0
    for value in (True, False):
        with pytest.raises(ValueError, match="boolean"):
            parse_weight(value)
    for value in ("x", "", None, [1], float("inf"), float("nan")):
        with pytest.raises(ValueError):
            parse_weight(value)


def test_parse_weight_refuses_more_than_4300_digits():
    # 4300 digits is Python's int-string limit: no longer value prints
    assert parse_weight("1e300") == parse_weight(Decimal("1e300")) == 10**300
    assert parse_weight("1e4299") == 10**4299
    # 5 / 10^4300 is 1 / (2 * 10^4299), whose denominator has 4300 digits
    assert parse_weight("5e-4300") == Fraction(1, 2 * 10**4299)
    assert parse_weight("0." + "0" * 5000 + "1e5001") == 1
    # p/q is capped on its digits after leading zeros, as a decimal is
    assert parse_weight("1/" + "0" * 5000 + "1") == 1
    assert parse_weight("-0_0" + "0" * 5000 + "3/000_6") == Fraction(-1, 2)
    assert parse_weight("1" * 4300 + "/1") == int("1" * 4300)
    assert parse_weight("-1_0.5_0e-1") == parse_weight(" -1.05 ") == Fraction(-21, 20)
    # a zero needs no power of ten, however large its exponent, even one
    # longer than Python's int-string limit
    assert parse_weight("0e99999999999999999999") == parse_weight(Decimal("-0E+10000000")) == 0
    assert parse_weight("0e" + "1" * 5000) == parse_weight("-0.0e-" + "1" * 5000) == 0
    # leading zeros of an exponent are not its length
    assert parse_weight("1e+" + "0" * 5000 + "3") == 1000
    # an exponent or a decimal's digits past that limit are refused by their
    # length, with the cap message, not Python's int-string one
    long = ("1e4300", "1e-4300", "1" * 4301, "1e10000000", "-2.5E-10000000",
            Decimal("1e10000000"), "1e99999999999999999999", "1" * 4301 + "/1",
            "1/" + "3" * 4301, "2" * 4301 + "/2", 10**4300, Fraction(1, 10**4300),
            "1e" + "1" * 5000, "1e-" + "1" * 5000, "0." + "1" * 5000)
    for value in long:
        with pytest.raises(ValueError, match="more than 4300 digits"):
            parse_weight(value)
    # text outside the grammar is refused as it stands, never handed to
    # Fraction(), whose own text syntax differs between Python versions
    bad = ("1e", "1__0", "_1", ".", "1.5/2", "1/-2", "1/2e3", "/2", "1/", "1 / 2",
           "1" * 5000 + " / 1", Decimal("NaN"), Decimal("-Infinity"))
    for value in bad:
        with pytest.raises(ValueError, match="Invalid literal"):
            parse_weight(value)


def test_read_json_rejects_an_exponent_decimal_cannot_hold():
    with pytest.raises(ValueError, match="test JSON holds a number out of range"):
        read_json('{"n": 1, "w": 1e99999999999999999999}', "test", ("w",))


def _split_by_characters(text):
    """split_top_level as a scan of every character, the reference."""
    if not text.strip():
        return []
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


def _unnested(text):
    """Whether text's braces are balanced and never nested."""
    depth = 0
    for ch in text:
        depth += {"{": 1, "}": -1}.get(ch, 0)
        if depth not in (0, 1):
            return False
    return depth == 0


def test_split_top_level_matches_character_scan():
    assert split_top_level("{1,2}:1/2, {3}:1") == ["{1,2}:1/2", " {3}:1"]
    # every text of up to 7 characters over braces, comma, space and a digit:
    # the scan's pieces where braces are balanced and unnested, ValueError
    # for any other text that is not blank
    for size in range(8):
        for chars in product("{}, 1", repeat=size):
            text = "".join(chars)
            if _unnested(text) or not text.strip():
                assert split_top_level(text) == _split_by_characters(text), text
            else:
                with pytest.raises(ValueError):
                    split_top_level(text)


def test_check_players_bounds():
    check_players(1)
    check_players(20)
    with pytest.raises(ValueError):
        check_players(0)
    with pytest.raises(ValueError):
        check_players(21)


def test_to_common_denominator():
    assert to_common_denominator([1, Fraction(1, 2), "2/3", -Fraction(3, 4)]) == ([12, 6, 8, -9], 12)
    assert to_common_denominator([0, 5]) == ([0, 5], 1)
    assert to_common_denominator([]) == ([], 1)
    # a list of ints comes back equal, as a new list
    values = [3, -1, 0, 7]
    nums, den = to_common_denominator(values)
    assert (nums, den) == (values, 1) and nums is not values


def test_to_common_denominator_matches_the_per_value_reference():
    """Every list against Fraction(v).as_integer_ratio() over the lcm."""
    rng = random.Random(1013)
    makers = (
        lambda: rng.randint(-50, 50),
        lambda: -Fraction(rng.randint(0, 40), rng.randint(1, 12)),
        lambda: "%d/%d" % (rng.randint(-30, 30), rng.randint(1, 9)),
        lambda: rng.randint(-64, 64) / 8,
        lambda: rng.random(),
    )
    for trial in range(600):
        # one list in three holds ints only
        kinds = makers[:1] if trial % 3 == 0 else rng.sample(makers, rng.randint(1, 5))
        values = [rng.choice(kinds)() for _ in range(rng.randint(0, 12))]
        ratios = [Fraction(v).as_integer_ratio() for v in values]
        d = lcm(*[q for _, q in ratios])
        nums, den = to_common_denominator(values)
        assert (nums, den) == ([p * (d // q) for p, q in ratios], d), values
        assert all(type(p) is int for p in nums), values
    # each value is read by parse_weight, which refuses a bool where
    # Fraction() reads it as 0 or 1
    for values in ([True], [1, False], [Fraction(1, 2), True]):
        with pytest.raises(ValueError, match="a boolean is not a number"):
            to_common_denominator(values)
    # ints and Fractions skip parse_weight but not its digit cap, which
    # holds each value's own parts, not their products over the lcm
    big = 10**4300 - 1
    assert to_common_denominator([big]) == ([big], 1)
    assert to_common_denominator([big, Fraction(1, 7)]) == ([7 * big, 1], 7)
    assert to_common_denominator([Fraction(1, big), Fraction(1, 2)]) == ([2, big], 2 * big)
    for values in ([10**4300], [1, -(10**4300)], [Fraction(1, 2), Fraction(-(10**4300), 3)],
                   [Fraction(1, 10**4300)], [3, Fraction(1, 10**4300)]):
        with pytest.raises(ValueError, match="more than 4300 digits"):
            to_common_denominator(values)


def test_read_json_keeps_numbers_as_written():
    obj = read_json('{"n": 2, "w": [0.1, 1e400, -2.50, 3]}', "test", ("w",))
    assert obj["w"] == [Decimal("0.1"), Decimal("1e400"), Decimal("-2.50"), 3]
    assert type(obj["w"][3]) is int
    assert [parse_weight(w) for w in obj["w"]] == [Fraction(1, 10), 10**400, Fraction(-5, 2), 3]
