from fractions import Fraction

import pytest

from balanced_forge.core import (
    binomial,
    rising_factorial,
    multiset_coefficient,
    coalitions_of,
    players_of,
    format_coalition,
    parse_coalition,
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


def test_rising_factorial_uses_p_factors():
    # n(n+1)...(n+p-1)
    assert rising_factorial(3, 3) == 3 * 4 * 5
    assert rising_factorial(1, 4) == 24
    assert rising_factorial(7, 1) == 7
    assert rising_factorial(5, 0) == 1
    assert rising_factorial(0, 3) == 0


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


def test_format_parse_round_trip():
    assert format_coalition(0b1101) == "{1,3,4}"
    assert format_coalition(0) == "{}"
    assert parse_coalition("{1,3,4}") == 0b1101
    assert parse_coalition("{ 2 , 3 }") == 0b110
    assert parse_coalition("{}") == 0
    for mask in range(64):
        assert parse_coalition(format_coalition(mask)) == mask


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
