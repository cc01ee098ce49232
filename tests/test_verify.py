import pytest

from balanced_forge.verify import prop1, prop2, sharpbs, table1


@pytest.mark.parametrize(
    "suite, kwargs, message",
    [
        (table1, {"max_n": 5.0}, "max_n must be an int, got 5.0"),
        (table1, {"max_n": 7}, "max_n 7 outside 2..6"),
        (sharpbs, {"max_n": 2.0}, "max_n must be an int, got 2.0"),
        (sharpbs, {"max_n": 2, "games": 2.0}, "games must be an int, got 2.0"),
        (sharpbs, {"max_n": 2, "games": 0}, "games must be >= 1, got 0"),
        (prop1, {"max_nodes": 2.0}, "max_nodes must be an int, got 2.0"),
        (prop1, {"max_nodes": 2, "max_size": True}, "max_size must be an int, got True"),
        (prop1, {"max_nodes": 2, "max_size": 0}, "max_size must be >= 1, got 0"),
        (prop2, {"max_nodes": True}, "max_nodes must be an int, got True"),
    ],
)
def test_suite_ranges_are_checked_by_name(suite, kwargs, message):
    # a float, a bool or an empty range is refused before any work
    with pytest.raises(ValueError) as exc:
        suite(**kwargs)
    assert str(exc.value) == message
