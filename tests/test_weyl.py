import random

import pytest

import qkostka
from qkostka.compositions import InvariantError, as_composition, weighted_size
from qkostka.kostka import fusion_weight_char, restricted_fermionic
from qkostka.qexact import QPolynomial
from qkostka.verify import admissible_compositions
from qkostka.weyl import (
    AffineWeight,
    BranchError,
    _orbit_items,
    apply_word,
    bgg_generators,
    closed_form_action,
    euler_characteristic_bgg,
    homology_dim_predicate,
    shifted_reflection,
    word_for,
)


def test_shifted_reflections():
    w = AffineWeight(0, 1, 0)
    assert shifted_reflection("s0", w) == AffineWeight(4, 1, 2)
    assert shifted_reflection("s1", w) == AffineWeight(-2, 1, 0)
    # both generators are involutions for the shifted action
    for i in (-3, 0, 2):
        for k in (1, 2, 3):
            for m in (-1, 0, 4):
                v = AffineWeight(i, k, m)
                assert shifted_reflection("s0", shifted_reflection("s0", v)) == v
                assert shifted_reflection("s1", shifted_reflection("s1", v)) == v
    with pytest.raises(BranchError):
        shifted_reflection("s2", w)


def test_reflections_preserve_level():
    for i in range(-4, 5):
        w = AffineWeight(i, 3, 1)
        assert shifted_reflection("s0", w).level == 3
        assert shifted_reflection("s1", w).level == 3


def test_word_for():
    assert word_for("b", 0) == ()
    assert word_for("b", 2) == ("s0", "s1", "s0", "s1")
    assert word_for("d", 1) == ("s1", "s0")
    assert word_for("a", 0) == ("s0",)
    assert word_for("a", 1) == ("s0", "s1", "s0")
    assert word_for("c", 1) == ("s1", "s0", "s1")
    with pytest.raises(BranchError):
        word_for("x", 1)


def test_apply_word_composes_right_to_left():
    w = AffineWeight(1, 2, 0)
    assert apply_word(("s0", "s1"), w) == shifted_reflection(
        "s0", shifted_reflection("s1", w)
    )


def test_closed_forms_match_iterated_reflections():
    rng = random.Random(11)
    for _ in range(100):
        w = AffineWeight(rng.randint(-6, 6), rng.randint(1, 6), rng.randint(-10, 10))
        for branch in "abcd":
            for n in range(9):
                assert closed_form_action(branch, n, w) == apply_word(
                    word_for(branch, n), w
                ), (branch, n, w)


def test_bgg_generators():
    assert bgg_generators(0, 0, 1) == [AffineWeight(0, 1, 0)]
    gens = bgg_generators(1, 0, 1)
    assert len(gens) == 2
    assert {g.weight for g in gens} == {-2, 4}
    # grades are nonnegative with a nondecreasing floor along the resolution
    prev_min = 0
    for p in range(6):
        gens = bgg_generators(p, 1, 2)
        assert all(g.level == 2 for g in gens)
        assert all(g.grade >= 0 for g in gens)
        low = min(g.grade for g in gens)
        assert low >= prev_min
        prev_min = low


def test_resolution_weight_line():
    # degree p contributes weight p(k+2)+l on even steps and p(k+2)+k-l on odd
    for k in (1, 2, 3):
        for l in range(k + 1):
            for p in range(7):
                gens = bgg_generators(p, l, k)
                want = p * (k + 2) + (l if p % 2 == 0 else k - l)
                assert gens[-1].weight == want, (k, l, p)


def test_weyl_labels_refused_by_the_level_weight_check():
    for l, k, message in [(0, 0, "level must be positive"), (0, -1, "level must be positive"),
                          (3, 2, "weight must satisfy"), (-1, 2, "weight must satisfy")]:
        with pytest.raises(ValueError, match=message):
            bgg_generators(1, l, k)
        with pytest.raises(ValueError, match=message):
            homology_dim_predicate(1, 4, l, k)


def test_homology_dim_predicate():
    assert homology_dim_predicate(0, 0, 0, 1) == 1
    assert homology_dim_predicate(1, 4, 0, 1) == 1  # 1·3 + 1 - 0
    assert homology_dim_predicate(1, 3, 0, 1) == 0
    assert homology_dim_predicate(2, 6, 0, 1) == 1  # 2·3 + 0
    assert homology_dim_predicate(2, 5, 0, 1) == 0


def test_euler_characteristic_matches_fermionic():
    cases = [
        (0, (4,), 1),
        (0, (4,), 2),
        (2, (4,), 2),
        (0, (6,), 2),
        (1, (2, 1), 2),
        (0, (2, 2), 3),
        (3, (0, 0, 1), 3),
    ]
    for l, m, k in cases:
        assert euler_characteristic_bgg(m, l, k) == restricted_fermionic(l, m, k), (
            l,
            m,
            k,
        )


def _reference_orbit_items(l, k, size):
    """The orbit items by a walk that finds its own end: it stops once the
    |h0| floor has passed size + 2 at two consecutive lengths."""
    items = []
    prev_floor = -1
    clear_streak = 0
    p = 0
    while True:
        gens = bgg_generators(p, l, k)
        floor = min(abs(g.weight) for g in gens)
        for g in gens:
            if abs(g.weight) <= size:
                items.append((-1 if p % 2 else 1, g.grade, -g.weight))
        if floor > size + 2:
            if floor < prev_floor:
                raise InvariantError("orbit weights stopped growing")
            clear_streak += 1
            if clear_streak >= 2:
                return tuple(items)
        else:
            clear_streak = 0
        prev_floor = floor
        p += 1


def _reference_euler_characteristic(m, l, k):
    """The orbit sum as one out = out +- p.shifted(e) chain, term by term."""
    comp = as_composition(m).trimmed()
    out = QPolynomial.zero()
    for sign, grade, weight in _reference_orbit_items(l, k, weighted_size(comp)):
        term = fusion_weight_char(comp, weight).shifted(grade)
        out = out + term if sign > 0 else out - term
    return out


def test_euler_characteristic_matches_the_reference_chain():
    # compositions up to two spins wider than the level, where the orbit
    # sum itself cancels to the zero restricted polynomial
    nonzero = 0
    for k in range(1, 6):
        for m in admissible_compositions(10, k + 2):
            for l in range(k + 1):
                want = _reference_euler_characteristic(m, l, k)
                assert euler_characteristic_bgg(m, l, k) == want, (l, m, k)
                nonzero += not want.is_zero()
    assert nonzero > 750


def test_orbit_items_bounded_before_the_loop_match_the_walk():
    # every key with k <= 11 and |m| < 200; the last length the bound admits
    # holds an image for many of them, so the bound is not loose by a length
    qkostka.clear_caches()
    last_length_used = 0
    for k in range(1, 12):
        for l in range(k + 1):
            for size in range(200):
                assert _orbit_items(l, k, size) == _reference_orbit_items(l, k, size), (l, k, size)
                last = size // (k + 2) + 1
                last_length_used += any(abs(g.weight) <= size for g in bgg_generators(last, l, k))
    assert last_length_used > 5000
    qkostka.clear_caches()


def test_compositions_of_equal_size_share_one_orbit_walk():
    qkostka.clear_caches()
    for m in ((4,), (2, 1), (0, 2)):
        assert weighted_size(as_composition(m)) == 4
        for l in range(3):
            assert euler_characteristic_bgg(m, l, 2) == restricted_fermionic(l, m, 2), (m, l)
    info = _orbit_items.cache_info()
    assert (info.currsize, info.misses, info.hits) == (3, 3, 6)


def _reference_apply_word(word, w):
    """apply_word as one AffineWeight per step, with the reflection rule of
    shifted_reflection written out, kept verbatim."""
    for gen in reversed(list(word)):
        i, k, m = w
        if gen == "s0":
            w = AffineWeight(-i + 2 * k + 2, k, m + k - i + 1)
        elif gen == "s1":
            w = AffineWeight(-i - 2, k, m)
        else:
            raise BranchError(f"unknown generator {gen!r}")
    return w


def test_apply_word_matches_the_per_step_reference(monkeypatch):
    from qkostka import verify, weyl

    # every (word, start) the weyl suite applies
    visited = []

    def recorded(word, w):
        visited.append((word, w))
        return apply_word(word, w)

    monkeypatch.setattr(weyl, "apply_word", recorded)
    assert verify.suite_weyl(verify.VerifyConfig()).passed
    monkeypatch.undo()
    assert len(visited) == 3600
    # and every branch word up to n = 20 on a grid of starts
    visited += [
        (word_for(branch, n), AffineWeight(i, k, m))
        for branch in "abcd" for n in range(21)
        for i in range(-6, 7) for k in range(1, 7) for m in (-3, 0, 5)
    ]
    for word, w in visited:
        got = apply_word(word, w)
        assert got == _reference_apply_word(word, w) and type(got) is AffineWeight, (word, w)
    # a word given as an iterator, and an unknown generator anywhere in it
    w = AffineWeight(1, 2, 0)
    assert apply_word(iter(("s0", "s1", "s0")), w) == _reference_apply_word(("s0", "s1", "s0"), w)
    for word in (("s2",), ("s0", "s2"), ("s2", "s1", "s0")):
        with pytest.raises(BranchError, match="unknown generator 's2'"):
            apply_word(word, w)
