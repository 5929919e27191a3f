import re
import tracemalloc

import pytest

from qkostka.compositions import (
    Composition,
    InvalidWeightError,
    ShapeContent,
    as_composition,
    bridge_to_partition,
    composition_from_factors,
    hook_composition,
    min_form,
    norm_ss,
    parity_count,
    parse_factor_list,
    top_degree_h,
    weighted_size,
)


def test_composition_basics():
    m = Composition((2, 0, 1))
    assert m.width == 3
    assert type(m.padded(5)) is tuple
    assert m.padded(5) == (2, 0, 1, 0, 0)
    assert Composition((2, 0, 1, 0)).parts == m.parts
    assert Composition(()).parts == (0,)
    assert Composition(()).width == 1
    assert Composition(()).padded(3) == (0, 0, 0)
    with pytest.raises(ValueError):
        m.padded(2)


def test_trimmed_returns_self_when_already_trimmed():
    def reference_normal_form(parts):
        parts = list(parts)
        while len(parts) > 1 and parts[-1] == 0:
            parts.pop()
        return tuple(parts) or (0,)

    for parts in [(), (0,), (3,), (2, 0, 1), (0, 0, 2), (1, 1, 1),
                  (0, 0), (2, 0), (2, 0, 1, 0), (0, 1, 0, 0, 0), (0, 0, 0)]:
        m = Composition(parts)
        assert m.parts == reference_normal_form(parts), parts
        assert m.trimmed() is m
        assert weighted_size(m) == sum(a * p for a, p in enumerate(parts, start=1))


def test_equality_and_hash_ignore_trailing_zeros():
    for short, long in [((1,), (1, 0)), ((), (0, 0, 0)), ((2, 0, 1), (2, 0, 1, 0, 0))]:
        assert Composition(short) == Composition(long)
        assert hash(Composition(short)) == hash(Composition(long))
        assert len({Composition(short), Composition(long)}) == 1
    assert Composition((1, 0)) != Composition((0, 1))


def test_multiplicities_must_be_nonnegative_integers():
    for bad in ([1.5], [2.0], ["3"], [1, None]):
        with pytest.raises(ValueError, match="must be integers"):
            Composition(bad)
    with pytest.raises(ValueError, match="multiplicities must be nonnegative"):
        Composition((2, -1))
    assert Composition((True, 2)).parts == (1, 2)


def test_as_composition():
    assert as_composition((1, 2)) == Composition((1, 2))
    assert as_composition([3]) == Composition((3,))
    m = Composition((1, 1))
    assert as_composition(m) is m


def test_composition_from_factors():
    assert composition_from_factors([1, 1, 1, 1]) == Composition((4,))
    assert composition_from_factors([2, 1]) == Composition((1, 1))
    assert composition_from_factors([]) == Composition(())
    with pytest.raises(ValueError):
        composition_from_factors([0])


def test_hook_composition_matches_the_factor_list():
    for N in range(8):
        for j in range(6):
            want = composition_from_factors([1] * N + [j + 1])
            assert hook_composition(N, j) == want, (N, j)
    for N, j in [(-1, 0), (0, -1)]:
        with pytest.raises(ValueError):
            hook_composition(N, j)


def test_parse_factor_list():
    assert parse_factor_list("1,1,1,1") == Composition((4,))
    assert parse_factor_list("2,1") == Composition((1, 1))
    assert parse_factor_list("1^4,2") == Composition((4, 1))
    assert parse_factor_list("1^0") == Composition(())
    with pytest.raises(ValueError):
        parse_factor_list("")
    with pytest.raises(ValueError):
        parse_factor_list("1^x")
    with pytest.raises(ValueError):
        parse_factor_list("-2")
    # a zero repeat adds nothing, whatever its spin
    assert parse_factor_list("0^0") == Composition(())
    assert parse_factor_list("-1^0") == Composition(())
    assert parse_factor_list("2^0,1") == Composition((1,))
    assert parse_factor_list("1^2, 3 ,1^3,3^0") == Composition((5, 0, 1))
    refusals = {
        "1^": "invalid literal for int",
        "^2": "invalid literal for int",
        "0": "factor spins must be positive integers",
        "1^-1": "negative repeat in '1^-1'",
        "1,,2": "empty entry in factor list '1,,2'",
        # spins are checked after the whole list is read
        "0,1^-1": "negative repeat in '1^-1'",
        "0,x": "invalid literal for int",
    }
    for text, message in refusals.items():
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_factor_list(text)


def test_parse_factor_list_counts_repeats_without_expanding_them():
    tracemalloc.start()
    try:
        m = parse_factor_list("1^2000000")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert m.parts == (2000000,)
    assert peak < 1 << 20
    assert parse_factor_list("1^1000000000,3").parts == (10**9, 0, 1)


def test_weighted_size():
    assert weighted_size((4,)) == 4
    assert weighted_size((1, 1)) == 3
    assert weighted_size((0, 0, 2)) == 6
    assert weighted_size(()) == 0


def test_min_form():
    # sum over a,b of min(a,b) m_a n_b
    assert min_form((2,), (2,)) == 4
    assert min_form((1, 1), (1, 1)) == (1 + 1) + (1 + 2)
    assert min_form((0, 1), (0, 1)) == 2
    assert min_form((3, 0), (0, 2)) == 6
    # trailing zeros change nothing, so vectors of any two widths pair up
    assert min_form((3,), (0, 2)) == 6
    assert min_form((1, 0, 0, 0), (0, 0, 1)) == 1
    assert min_form((0, 1), (1, 2, 0)) == min_form((0, 1, 0), (1, 2, 0)) == 5


def test_statistics_on_single_columns():
    # m = (N): mAm = N^2, p counts odd suffix sums
    for N in range(1, 8):
        m = (N,)
        assert min_form(m, m) == N * N
        assert parity_count(m) == N % 2
        h = top_degree_h(m)
        assert h == (N * N - N % 2) // 4


def test_norm_and_parity():
    assert norm_ss((2,)) == 1
    # suffix sums of (1,1) are 2 then 1: one odd entry
    assert parity_count((1, 1)) == 1
    assert parity_count((2,)) == 0
    assert parity_count((2, 1)) == 2  # suffix sums 3, 1


def test_top_degree_h_integrality():
    for parts in [(4,), (2, 1), (1, 1), (6,), (0, 2), (2, 0, 1), (1, 1, 1)]:
        h = top_degree_h(parts)
        assert isinstance(h, int)
        assert 4 * h == min_form(parts, parts) - parity_count(parts)


def test_bridge_to_partition():
    sc = bridge_to_partition((4,), 0)
    assert sc.shape == (2, 2)
    assert sc.content == (1, 1, 1, 1)
    sc = bridge_to_partition((4,), 2)
    assert sc.shape == (3, 1)
    sc = bridge_to_partition((1, 1), 1)
    assert sc.shape == (2, 1)
    assert sc.content == (2, 1)
    with pytest.raises(InvalidWeightError):
        bridge_to_partition((4,), 1)  # parity
    with pytest.raises(InvalidWeightError):
        bridge_to_partition((4,), 6)  # l > |m|


def test_shape_content_validation():
    with pytest.raises(ValueError):
        ShapeContent((1, 2), (1, 1, 1))  # not a partition
    with pytest.raises(ValueError):
        ShapeContent((2,), (1, 1))  # two rows required
