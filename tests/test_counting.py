import pytest

from balanced_forge.cli import main
from balanced_forge.core import binomial
from balanced_forge.counting import (
    count_total,
    count_spanning,
    count_cumulative,
    count_graphs,
    egf_table,
)
from balanced_forge.enumeration import enumerate_uniform


def test_count_total():
    assert count_total(3, 2, 3) == 10
    assert count_total(2, 2, 3) == 1
    for n in range(6):
        for k in range(1, 5):
            assert count_total(n, k, 0) == 1


def test_count_spanning_known_values():
    assert count_spanning(2, 2, 3) == 1
    assert count_spanning(3, 2, 3) == 7
    for p in range(1, 6):
        assert count_spanning(1, 1, p) == 1
    # fixed by brute force over labeled spanning 2-uniform pairs on 4 nodes
    assert count_spanning(4, 2, 2) == len(enumerate_uniform(4, 2, 2, spanning=True))
    assert count_spanning(4, 2, 2) == 3


def test_count_spanning_boundaries():
    assert count_spanning(0, 2, 0) == 1      # empty hypergraph spans no nodes
    assert count_spanning(0, 2, 1) == 0
    assert count_spanning(1, 2, 1) == 0      # no 2-edge fits on one node
    assert count_spanning(3, 3, 2) == 1      # the doubled full edge
    assert count_spanning(2, 1, 1) == 0      # one singleton cannot span two nodes


def test_count_cumulative():
    assert count_cumulative(3, 2, 3) == 8
    assert count_cumulative(2, 2, 3) == 1
    for k in range(1, 5):
        assert count_cumulative(k - 1, k, 3) == 0


def test_egf_table():
    counts = egf_table(2, 3, 5)
    assert counts == [0, 0, 1, 7, 22, 30]
    assert counts[3] == count_spanning(3, 2, 3)
    with pytest.raises(ValueError):
        egf_table(2, 3, 31)
    with pytest.raises(ValueError):
        egf_table(2, 3, -1)


def test_egf_table_serialization(capsys):
    # `hyper count --table` writes the CSV and JSON bytes itself
    argv = ["hyper", "count", "--table", "3", "--degree", "2", "--size", "3"]
    assert main(argv) == 0
    assert capsys.readouterr().out == "n,count\n0,0\n1,0\n2,1\n3,7\n"
    assert main(argv + ["--json"]) == 0
    assert capsys.readouterr().out == '{"k":2,"p":3,"counts":[0,0,1,7]}\n'


def test_count_graphs():
    assert count_graphs(0) == 1
    assert count_graphs(1) == 1
    assert count_graphs(3) == 8
    assert count_graphs(4) == 64
    assert count_graphs(64) == 1 << binomial(64, 2)
    with pytest.raises(ValueError):
        count_graphs(65)
    with pytest.raises(ValueError):
        count_graphs(-1)
