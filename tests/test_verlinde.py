import pytest

from qkostka.kostka import restricted_fermionic
from qkostka.verlinde import fuse_basic, q1_consistency, structure_constants


def test_fuse_basic():
    # level 1: the doublet squares to the vacuum only
    assert fuse_basic(1, 1, 1) == (1, 0)
    # level 2: 1 x 1 = 0 + 2
    assert fuse_basic(1, 1, 2) == (1, 0, 1)
    assert fuse_basic(2, 2, 2) == (1, 0, 0)
    assert fuse_basic(0, 2, 2) == (0, 0, 1)
    # truncation from above: c <= 2k - a - b
    assert fuse_basic(2, 2, 3) == (1, 0, 1, 0)
    # the shared level and weight rule
    with pytest.raises(ValueError, match="weight must satisfy"):
        fuse_basic(3, 0, 2)
    with pytest.raises(ValueError, match="level must be positive"):
        fuse_basic(0, 0, 0)


def test_fuse_commutes():
    for k in (1, 2, 3):
        for a in range(k + 1):
            for b in range(k + 1):
                assert fuse_basic(a, b, k) == fuse_basic(b, a, k)


def test_structure_constants():
    assert structure_constants((), 2) == (1, 0, 0)
    assert structure_constants((4,), 2) == (2, 0, 2)
    assert structure_constants((2,), 1) == (1, 0)
    assert structure_constants((1, 1), 2) == (0, 1, 0)
    with pytest.raises(ValueError):
        structure_constants((0, 1), 1)


def test_structure_constants_and_q1_consistency_refuse_a_level_below_one():
    # the shared level rule runs before the width shortcut and the width check
    for call, args in [(structure_constants, ((), 0)), (structure_constants, ((1,), -1)),
                       (q1_consistency, ((4,), 0)), (q1_consistency, ((0, 1), 0))]:
        with pytest.raises(ValueError, match="level must be positive"):
            call(*args)


def test_q1_consistency_reports():
    reports = q1_consistency((4,), 2)
    assert [(r.l, r.fermionic_at_one, r.fusion_multiplicity) for r in reports] == [
        (0, 2, 2),
        (1, 0, 0),
        (2, 2, 2),
    ]
    assert all(r.passed for r in reports)


def test_q1_consistency_sweep():
    for k in (1, 2, 3):
        for parts in [(2,), (4,), (2, 1), (1, 1), (3, 1), (0, 2), (2, 2)]:
            for report in q1_consistency(parts, k):
                assert report.passed, (k, parts, report)


def test_q1_wide_composition():
    # a factor above the level annihilates everything
    reports = q1_consistency((0, 1), 1)
    assert all(
        r.fermionic_at_one == 0 and r.fusion_multiplicity == 0 for r in reports
    )


def test_fusion_matches_fermionic_directly():
    for k in (1, 2, 3):
        for parts in [(3,), (5,), (1, 2), (2, 0, 1)]:
            if len(parts) > k:
                continue
            constants = structure_constants(parts, k)
            for l in range(k + 1):
                assert restricted_fermionic(l, parts, k).evaluate_at_one() == constants[l]
