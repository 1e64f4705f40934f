import math

import pytest

from oracles import spearman


def test_spearman_of_a_monotone_pair_is_one_and_of_a_reversed_pair_minus_one():
    xs = [0.1, 0.5, 2.0, 7.0, 9.5]
    assert spearman(xs, [1, 4, 9, 16, 25]) == 1.0
    assert spearman(xs, [25, 16, 9, 4, 1]) == -1.0


def test_spearman_averages_the_ranks_of_ties():
    # Ranks 1, 2, 3, 4 against 1.5, 1.5, 3, 4.
    assert spearman([1, 2, 3, 4], [0, 0, 1, 2]) == pytest.approx(3 / math.sqrt(10), rel=1e-15)


def test_spearman_of_a_constant_list_is_undefined():
    with pytest.raises(ValueError):
        spearman([1, 2, 3], [5, 5, 5])
