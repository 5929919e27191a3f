import random
import sys
import threading

import pytest

import qkostka
from qkostka.charge import kostka_sl2_oracle
from qkostka.compositions import InvariantError, as_composition, weighted_size
from qkostka.kostka import _fusion_tables, fusion_weight_char, restricted_fermionic
from qkostka.qexact import QPolynomial, _digit_bytes
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


def _reference_packed_orbit_sum(m, l, k):
    """The orbit sum by its definition, in a plain dict: sign * q^grade times
    the sum of kostka_sl2_oracle(l', m) over l' >= |w| with l' = |w| (mod 2),
    for every orbit item. It reads neither the row store nor packed digits."""
    comp = as_composition(m)
    size = weighted_size(comp)
    data = {}
    for sign, grade, weight in _reference_orbit_items(l, k, size):
        for lp in range(abs(weight), size + 1, 2):
            for num, coeff in kostka_sl2_oracle(lp, comp).terms():
                data[num + 4 * grade] = data.get(num + 4 * grade, 0) + sign * coeff
    return QPolynomial(data)


def _per_sign_bound(m, l, k):
    """(headroom, total): the larger sign's count of orbit items with a
    nonempty slice, and the deepest of those slices at q = 1. No coefficient
    of either sign's sum can exceed their product; (0, 0) when every slice
    is empty."""
    comp = as_composition(m)
    size = weighted_size(comp)
    kept = [
        (sign, abs(weight))
        for sign, _, weight in _reference_orbit_items(l, k, size)
        if (size - weight) % 2 == 0
    ]
    if not kept:
        return 0, 0
    plus = sum(sign > 0 for sign, _ in kept)
    deepest = min(weight for _, weight in kept)
    total = sum(
        kostka_sl2_oracle(lp, comp).evaluate_at_one() for lp in range(deepest, size + 1, 2)
    )
    return max(plus, len(kept) - plus), total


def test_packed_orbit_sum_matches_the_dict_reference():
    # every (l, k <= 4, m) of the grid, spins above the level included; the
    # digits of the table the sum read must hold the per-sign bound
    qkostka.clear_caches()
    nonzero = widened = 0
    for k in range(1, 5):
        for m in admissible_compositions(12, 4):
            for l in range(k + 1):
                want = _reference_packed_orbit_sum(m, l, k)
                assert euler_characteristic_bgg(m, l, k) == want, (l, k, m)
                headroom, total = _per_sign_bound(m, l, k)
                if headroom:
                    width = _fusion_tables[m.parts][0][0]
                    assert (headroom * total).bit_length() <= 8 * width, (l, k, m)
                    # digits that hold one slice would not hold this sum's bound
                    widened += _digit_bytes((headroom * total).bit_length()) > _digit_bytes(
                        total.bit_length()
                    )
                nonzero += not want.is_zero()
    assert (nonzero, widened) == (757, 188)
    qkostka.clear_caches()


@pytest.mark.parametrize(
    "m, l, k, width",
    [
        # the table's digits exceed 8 bytes: the sliced digit read
        ((160,), 130, 140, 9),
        # the per-sign bound 5 * 858909578 sits just under 2**32
        ((15, 10, 1), 2, 6, 4),
    ],
)
def test_packed_orbit_sum_on_wide_digits(m, l, k, width):
    qkostka.clear_caches()
    assert euler_characteristic_bgg(m, l, k) == _reference_packed_orbit_sum(m, l, k)
    headroom, total = _per_sign_bound(m, l, k)
    bound = headroom * total
    assert _fusion_tables[m][0][0] == width == _digit_bytes(bound.bit_length())
    if width == 4:
        assert 2**32 - 2**20 < bound < 2**32
    qkostka.clear_caches()


def test_a_zero_parity_call_fills_no_table():
    # |m| - l odd leaves every slice empty: the sum is zero before any fill
    qkostka.clear_caches()
    m = as_composition((3, 1, 2))
    for k in (3, 4, 5):
        for l in range(0, k + 1, 2):
            assert euler_characteristic_bgg(m, l, k).is_zero()
    assert m.parts not in _fusion_tables
    assert euler_characteristic_bgg(m, 1, 3) == restricted_fermionic(1, m, 3)
    assert m.parts in _fusion_tables
    qkostka.clear_caches()


def test_packed_orbit_sums_are_right_under_concurrent_calls():
    # threads fill and widen one composition's table at once: slices asked
    # alone take one-slice digits, Euler sums at k = 1 need wider ones, and
    # a thread may publish a table built on one another has since replaced
    m = (9, 2, 1)
    calls = [("slice", alpha) for alpha in range(1, 16, 2)]
    calls += [("euler", l, k) for k in (1, 2, 3) for l in range(k + 1)]
    want = {}
    for call in calls:
        qkostka.clear_caches()
        want[call] = _run_call(m, call)
    wrong = []

    def work(call) -> None:
        try:
            if _run_call(m, call) != want[call]:
                wrong.append(call)
        except Exception as exc:  # a fault in a worker fails the test, not only warns
            wrong.append(exc)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            qkostka.clear_caches()
            threads = [threading.Thread(target=work, args=(call,)) for call in calls]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            wrong += [call for call in calls if _run_call(m, call) != want[call]]
    finally:
        sys.setswitchinterval(switch)
    assert wrong == []
    qkostka.clear_caches()


def _run_call(m, call):
    if call[0] == "slice":
        return fusion_weight_char(m, call[1])
    return euler_characteristic_bgg(m, call[1], call[2])


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
