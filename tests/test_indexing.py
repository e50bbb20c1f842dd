import pytest

from mscr.metrics import union_v_size
from mscr.oracle import (
    delta,
    int_to_vec,
    sub_index,
    union_v_indices,
    vec_to_int,
)


def test_delta():
    assert delta(0) == 1
    assert delta(1) == 0
    assert delta(2) == 0


@pytest.mark.parametrize("n,s", [(2, 2), (3, 2), (4, 2), (3, 3), (2, 5)])
def test_int_vec_roundtrip(n, s):
    for a in range(s**n):
        vec = int_to_vec(a, n, s)
        assert len(vec) == n
        assert vec_to_int(vec, s) == a


def test_int_vec_range_errors():
    with pytest.raises(ValueError):
        int_to_vec(8, 3, 2)
    with pytest.raises(ValueError):
        vec_to_int((0, 2), 2)


def test_sub_index_matches_tuple_substitution():
    n, s = 4, 3
    for a in range(s**n):
        vec = int_to_vec(a, n, s)
        for i in range(n):
            for v in range(s):
                expect = vec_to_int(vec[:i] + (v,) + vec[i + 1:], s)
                assert sub_index(a, i, v, s) == expect


# V_i is the union over the single coordinate i

def test_v_set_small():
    assert union_v_indices({0}, 2, 2) == [0, 2]  # (0, 0) and (0, 1)


@pytest.mark.parametrize("n,s", [(3, 2), (4, 2), (3, 3)])
def test_v_set_cardinality_and_order(n, s):
    for i in range(n):
        ints = union_v_indices({i}, n, s)
        assert len(ints) == s ** (n - 1)
        assert ints == sorted(ints)
        assert all(int_to_vec(a, n, s)[i] == 0 for a in ints)


def test_v_set_coordinate_out_of_range():
    with pytest.raises(ValueError):
        union_v_indices({3}, 3, 2)


def test_union_example_counts():
    assert len(union_v_indices({0, 1}, 4, 2)) == 12  # 2^3 + 2^3 - 2^2
    assert len(union_v_indices({1, 3}, 5, 3)) == 135  # 3^3 (3^2 - 2^2)


def test_union_brute_force_oracle():
    # oracle: direct filter over the whole space
    for n, s, coords in [(5, 3, (1, 3)), (4, 2, (0, 1)), (4, 2, (0, 1, 2)), (3, 3, (0, 2))]:
        expect = [
            a
            for a in range(s**n)
            if any((a // s**i) % s == 0 for i in coords)
        ]
        assert union_v_indices(coords, n, s) == expect
        assert len(expect) == union_v_size(n, s, len(coords))


def test_union_closed_form_exhaustive_small():
    from itertools import combinations

    for n, s in [(3, 2), (4, 2), (3, 3), (4, 3)]:
        for m in range(1, n + 1):
            for coords in combinations(range(n), m):
                assert len(union_v_indices(coords, n, s)) == union_v_size(n, s, m)


def test_union_empty_errors():
    with pytest.raises(ValueError):
        union_v_indices(set(), 4, 2)


def test_complement_characterization():
    n, s = 4, 3
    coords = (0, 2)
    union = set(union_v_indices(coords, n, s))
    for a in range(s**n):
        vec = int_to_vec(a, n, s)
        outside = all(vec[i] != 0 for i in coords)
        assert (a not in union) == outside
