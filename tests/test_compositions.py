import copy
import pickle
import re
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import pytest

from qkostka.abf import AbfLabel
from qkostka.coinvariants import FunctionalModelSpec
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
from qkostka.qexact import QPolynomial
from qkostka.reports import AuditRecord
from qkostka.virasoro import MinimalModel, QSeriesTruncated


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
    with pytest.raises(ValueError, match="shape and content must be integers"):
        ShapeContent((2.9, "1"), (2, 1.5))  # not rounded to ((2, 1), (2, 1))
    with pytest.raises(ValueError, match="shape and content must be integers"):
        ShapeContent((2, 1), (2, 1.0))
    assert ShapeContent([2, True], [2, 1]).shape == (2, 1)


# For each value class: two equal builds from differently spelled inputs, one
# build differing in a field, its fields as stored, and its exact repr.
VALUES = {
    "Composition": (
        lambda: Composition([1, 2]),
        lambda: Composition((1, 2, 0)),
        lambda: Composition([2, 1]),
        {"parts": (1, 2)},
        "Composition([1, 2])",
    ),
    "ShapeContent": (
        lambda: ShapeContent((3, 2), (2, 2, 1)),
        lambda: ShapeContent([3, 2], [2, 2, 1]),
        lambda: ShapeContent((4, 1), (2, 2, 1)),
        {"shape": (3, 2), "content": (2, 2, 1)},
        "ShapeContent(shape=(3, 2), content=(2, 2, 1))",
    ),
    "MinimalModel": (
        lambda: MinimalModel(3, 4, 1, 1),
        lambda: MinimalModel(p=3, p_prime=4, r=1, s=1),
        lambda: MinimalModel(3, 4, 1, 2),
        {"p": 3, "p_prime": 4, "r": 1, "s": 1},
        "MinimalModel(p=3, p_prime=4, r=1, s=1)",
    ),
    "AbfLabel": (
        lambda: AbfLabel(3, 4, 1, 1),
        lambda: AbfLabel(r=3, b=4, a=1, N=1),
        lambda: AbfLabel(3, 4, 1, 3),
        {"r": 3, "b": 4, "a": 1, "N": 1},
        "AbfLabel(r=3, b=4, a=1, N=1)",
    ),
    "FunctionalModelSpec": (
        lambda: FunctionalModelSpec(1, 2, 0, (2,)),
        lambda: FunctionalModelSpec.from_parameters(0, Composition([2, 0]), 2),
        lambda: FunctionalModelSpec(1, 3, 0, (2,)),
        {"variable_count": 1, "level": 2, "weight": 0, "composition": Composition([2])},
        "FunctionalModelSpec(variable_count=1, level=2, weight=0, composition=Composition([2]))",
    ),
    "AuditRecord": (
        lambda: AuditRecord({"x": 0}, "a", "b", QPolynomial.one()),
        lambda: AuditRecord({"x": 0}, "a", "b", QPolynomial.q_power(0), True, {}),
        lambda: AuditRecord({"x": 0}, "a", "b", QPolynomial.one(), hard=False),
        {
            "params": {"x": 0},
            "route_a": "a",
            "route_b": "b",
            "residual": QPolynomial.one(),
            "hard": True,
            "detail": {},
        },
        "AuditRecord(params={'x': 0}, route_a='a', route_b='b', residual=QPolynomial(1), "
        "hard=True, detail={})",
    ),
    "QPolynomial": (
        lambda: QPolynomial({0: 1, 4: 2}),
        lambda: QPolynomial.from_integer_terms({1: 2, 0: 1, 5: 0}),
        lambda: QPolynomial.q_power(1, 2),
        {"_terms": {0: 1, 4: 2}},
        "QPolynomial(1 + 2*q)",
    ),
    "QSeriesTruncated": (
        lambda: QSeriesTruncated([1, 2], offset=-3),
        lambda: QSeriesTruncated((True, 2), offset=Fraction(-6, 2)),
        lambda: QSeriesTruncated([1, 2], offset=-2),
        {"offset": -3, "coeffs": (1, 2)},
        "QSeriesTruncated(offset=-3, coeffs=[1, 2])",
    ),
}


@pytest.mark.parametrize("name", sorted(VALUES))
def test_value_classes_compare_hash_and_print_by_their_fields(name):
    build, build_equal, build_other, fields, text = VALUES[name]
    value, equal, other = build(), build_equal(), build_other()
    assert repr(value) == repr(equal) == text
    assert {field: getattr(value, field) for field in fields} == fields
    assert value == equal and not value != equal
    assert value != other and not value == other
    # another class holding the same fields is a different value
    assert value != SimpleNamespace(**fields)
    assert value != tuple(fields.values())
    assert copy.deepcopy(value) == value
    assert pickle.loads(pickle.dumps(value)) == value
    if name == "AuditRecord":
        # its params and detail are dicts, so a record is not hashable
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(equal)
        assert len({value, equal, other}) == 2


def test_value_classes_with_equal_fields_differ_by_class():
    assert MinimalModel(3, 4, 1, 1) != AbfLabel(3, 4, 1, 1)


@pytest.mark.parametrize("name", sorted(VALUES))
def test_value_classes_refuse_assignment_and_deletion(name):
    build, _, _, fields, text = VALUES[name]
    value = build()
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(value, field, 0)
        with pytest.raises(AttributeError):
            delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 0
    assert repr(value) == text


def test_a_value_in_a_set_and_its_weighted_size_cannot_go_stale():
    model = MinimalModel(3, 4, 1, 1)
    models = {model}
    with pytest.raises(AttributeError):
        model.p = 9
    assert model in models
    c = Composition([1, 2])
    with pytest.raises(AttributeError):
        c.parts = (4,)
    with pytest.raises(AttributeError):
        c._weighted_size = 4
    assert c.parts == (1, 2)
    assert weighted_size(c) == 5
