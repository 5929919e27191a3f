import random
import sys
import threading
import time
import tracemalloc
from fractions import Fraction
from typing import Iterator

import pytest

import qkostka
from qkostka import kostka as kostka_module
from qkostka.charge import kostka_sl2_oracle
from qkostka.compositions import (
    Composition,
    InvalidWeightError,
    as_composition,
    min_form,
    top_degree_h,
    weighted_size,
)
from qkostka.kostka import (
    _fusion_tables,
    alternating_sum_raw,
    fusion_char_hook,
    fusion_weight_char,
    restricted_alternating,
    restricted_fermionic,
    reversed_char_1N,
    reversed_restricted,
    unrestricted,
)
from qkostka.qexact import QPolynomial, vector_gaussian_binomial
from qkostka.verify import VerifyConfig, admissible_compositions, run_suites
from qkostka.verlinde import structure_constants


def poly(terms):
    return QPolynomial.from_integer_terms(terms)


def _occupation_vectors(total: int, width: int) -> Iterator[tuple[int, ...]]:
    """All s in Z_{>=0}^width with sum a*s_a equal to total."""

    def rec(a: int, left: int, prefix: list[int]) -> Iterator[tuple[int, ...]]:
        if a > width:
            if left == 0:
                yield tuple(prefix)
            return
        if a == width:
            if left % a == 0:
                yield tuple(prefix + [left // a])
            return
        for s in range(left // a + 1):
            yield from rec(a + 1, left - a * s, prefix + [s])

    if total < 0:
        return iter(())
    return rec(1, total, [])


def _reference_restricted_fermionic(l, m, k):
    # The O(k^2) tops/exponent loop of the fermionic sum before its O(k)
    # suffix-sum rewrite, kept verbatim as an oracle for that rewrite.
    comp = as_composition(m).trimmed()
    if comp.width > k:
        return QPolynomial.zero()
    size = weighted_size(comp)
    if (size - l) % 2 or size < l:
        return QPolynomial.zero()
    v = tuple(max(0, a - k + l) for a in range(1, k + 1))
    mparts = comp.padded(k)
    out = QPolynomial.zero()
    for s in _occupation_vectors((size - l) // 2, k):
        tops = []
        ok = True
        for a in range(1, k + 1):
            t = sum(min(a, b) * (mparts[b - 1] - 2 * s[b - 1]) for b in range(1, k + 1))
            t += s[a - 1] - v[a - 1]
            if t < s[a - 1]:
                ok = False
                break
            tops.append(t)
        if not ok:
            continue
        exponent = min_form(s, s) + sum(va * sa for va, sa in zip(v, s))
        out = out + vector_gaussian_binomial(tops, s).shifted(exponent)
    return out


def test_restricted_fermionic_frozen():
    assert restricted_fermionic(0, (2,), 1) == poly({1: 1})
    assert restricted_fermionic(0, (4,), 1) == poly({4: 1})
    assert restricted_fermionic(0, (4,), 2) == poly({2: 1, 4: 1})
    assert restricted_fermionic(2, (4,), 2) == poly({2: 1, 3: 1})
    assert restricted_fermionic(0, (2, 1), 2) == poly({2: 1})
    assert restricted_fermionic(1, (1, 1), 2) == poly({1: 1})
    assert restricted_fermionic(0, (6,), 2) == poly({5: 1, 6: 1, 7: 1, 9: 1})


def test_restricted_fermionic_degenerate():
    # parity mismatch gives the zero polynomial
    assert restricted_fermionic(1, (4,), 2).is_zero()
    # a factor wider than the level forces zero
    assert restricted_fermionic(0, (0, 1), 1).is_zero()
    assert restricted_fermionic(1, (0, 0, 2), 2).is_zero()
    # empty fusion product
    assert restricted_fermionic(0, (), 1) == QPolynomial.one()
    with pytest.raises(ValueError):
        restricted_fermionic(3, (4,), 2)
    with pytest.raises(ValueError):
        restricted_fermionic(-1, (4,), 2)
    with pytest.raises(ValueError):
        restricted_fermionic(0, (4,), 0)


def test_unrestricted_matches_oracle():
    for m in admissible_compositions(10, 10):
        size = weighted_size(m)
        for l in range(size % 2, size + 1, 2):
            assert unrestricted(l, m) == kostka_sl2_oracle(l, m), (l, m)
    assert unrestricted(-2, (4,)).is_zero()


def test_route_agreement_small():
    for parts in [(4,), (2, 1), (6,), (0, 2), (2, 2), (1, 1, 1)]:
        m = Composition(parts)
        size = weighted_size(m)
        for k in (1, 2, 3):
            for l in range(size % 2, min(k, size) + 1, 2):
                fer = restricted_fermionic(l, m, k)
                assert restricted_alternating(l, m, k, source="charge") == fer
                assert restricted_alternating(l, m, k, source="fermionic") == fer


def test_alternating_matches_fermionic_above_level():
    # the signed sum genuinely cancels once the level cap bites
    assert restricted_alternating(0, (8,), 1) == restricted_fermionic(0, (8,), 1)
    assert restricted_alternating(1, (7,), 2) == restricted_fermionic(1, (7,), 2)


def test_alternating_clamps_wide_compositions():
    assert restricted_alternating(0, (0, 1), 1).is_zero()
    assert restricted_alternating(0, (0, 0, 2), 2).is_zero()


def test_raw_alternating_sum_signs():
    # without the width clamp the signed sum exposes the first syzygy:
    # a single factor one step above the level contributes with sign -1
    assert alternating_sum_raw(1, (0, 0, 1), 1) == poly({1: -1})
    assert alternating_sum_raw(0, (0, 0, 0, 1), 1) == poly({2: -1})
    # and vanishes identically one step further out
    assert alternating_sum_raw(0, (0, 1), 1).is_zero()


def test_reversed_restricted():
    p = reversed_restricted(0, (4,), 2)
    assert p == poly({0: 1, 2: 1})
    assert reversed_restricted(0, (6,), 2) == poly({0: 1, 2: 1, 3: 1, 4: 1})
    # the term-wise reversal is q**h(m) * K(1/q)
    for k in range(1, 5):
        for m in admissible_compositions(10, k):
            h = top_degree_h(m)
            for l in range(k + 1):
                want = restricted_fermionic(l, m, k).substitute_inverse().shifted(h)
                assert reversed_restricted(l, m, k) == want, (l, m, k)


def test_fusion_weight_char():
    m = Composition((2,))
    assert fusion_weight_char(m, 0) == poly({0: 1, 1: 1})
    assert fusion_weight_char(m, 2) == QPolynomial.one()
    assert fusion_weight_char(m, -2) == QPolynomial.one()
    assert fusion_weight_char(m, 4).is_zero()
    # weight symmetry
    for alpha in range(-4, 5):
        assert fusion_weight_char((2, 1), alpha) == fusion_weight_char((2, 1), -alpha)


def test_fusion_weight_char_matches_direct_sums_in_any_order():
    # the suffix-sum table must not depend on the order slices are asked in
    rng = random.Random(20051018)
    requests = []
    want = {}
    for m in admissible_compositions(10, 10):
        size = weighted_size(m)
        for alpha in range(-size - 3, size + 4):
            requests.append((m, alpha))
            want[m, alpha] = sum(
                (unrestricted(l, m) for l in range(abs(alpha), size + 1, 2)), QPolynomial.zero()
            )
    rng.shuffle(requests)
    qkostka.clear_caches()
    for m, alpha in requests:
        assert fusion_weight_char(m, alpha) == want[m, alpha], (m, alpha)


def test_fusion_weight_char_is_right_under_concurrent_calls():
    # one thread per weight fills one composition's table at once; a thread
    # that grew a table another thread had already published would shift
    # every slice behind it, and the wrong slices would stay cached
    m = (8, 2, 1)
    size = weighted_size(m)
    want = {
        alpha: sum((unrestricted(l, m) for l in range(alpha, size + 1, 2)), QPolynomial.zero())
        for alpha in range(1, size + 1, 2)
    }
    wrong = []

    def work(alpha: int) -> None:
        try:
            if fusion_weight_char(m, alpha) != want[alpha]:
                wrong.append(alpha)
        except Exception as exc:  # a fault in a worker fails the test, not only warns
            wrong.append(exc)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            qkostka.clear_caches()
            threads = [threading.Thread(target=work, args=(alpha,)) for alpha in want]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            wrong += [alpha for alpha in want if fusion_weight_char(m, alpha) != want[alpha]]
    finally:
        sys.setswitchinterval(switch)
    assert wrong == []
    qkostka.clear_caches()


def _count_calls(monkeypatch, module, name):
    """Count the calls to module.name from here on; returns a one-item list."""
    real = getattr(module, name)
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def _record_fills(monkeypatch):
    """Record (parts, last) of every slice fill from here on."""
    fills = []
    real = kostka_module._fusion_slices

    def recorded(comp, last):
        fills.append((comp.parts, last))
        return real(comp, last)

    monkeypatch.setattr(kostka_module, "_fusion_slices", recorded)
    return fills


def test_fusion_weight_char_fills_only_down_to_the_slice_asked(monkeypatch):
    # a full fill of 1^400 would need K_0, which takes far too long; the
    # walk yields K_400 and K_398 (N = 0, 1) and nothing below, and a deeper
    # request refills from N = 0 down to K_396 only
    qkostka.clear_caches()
    fills = _record_fills(monkeypatch)
    start = time.perf_counter()
    got = fusion_weight_char((400,), 398)
    deeper = fusion_weight_char((400,), 396)
    assert time.perf_counter() - start < 1.0
    assert fills == [((400,), 1), ((400,), 2)]
    assert len(_fusion_tables[(400,)]) == 4
    assert got == unrestricted(398, (400,)) + unrestricted(400, (400,))
    assert deeper == got + unrestricted(396, (400,))
    # a slice held fills nothing
    assert fusion_weight_char((400,), 400) == unrestricted(400, (400,))
    assert len(fills) == 2


def _cold_table(parts: tuple[int, ...], index: int, headroom: int) -> tuple:
    """The table one fill makes when none is held for parts."""
    _fusion_tables.pop(parts, None)
    return kostka_module._fusion_table(Composition(parts), index, headroom)


def test_a_deeper_or_wider_request_replaces_the_table_with_one_fill_from_n_zero(monkeypatch):
    from qkostka.weyl import euler_characteristic_bgg

    qkostka.clear_caches()
    # 1^12 down to weight 8 totals C(12, 2) = 66 at q = 1, one-byte digits;
    # down to weight 0 it totals C(12, 6) = 924, which needs two
    m = (12,)
    cold_deep = _cold_table(m, 7, 1)
    cold_wide = _cold_table((5, 2), 5, 4)
    cold = euler_characteristic_bgg((5, 2), 1, 1)
    qkostka.clear_caches()
    fills = _record_fills(monkeypatch)
    shallow = [fusion_weight_char(m, alpha) for alpha in (12, 10, 8)]
    assert fills == [(m, 0), (m, 1), (m, 2)]
    held = _fusion_tables[m]
    snapshot = list(held)
    # one-byte digits hold 255 // 66 = 3 Fs
    assert held[0] == (1, 3)
    deep = fusion_weight_char(m, 0)
    assert fills[3:] == [(m, 6)]
    assert _fusion_tables[m] == cold_deep
    assert _fusion_tables[m][0] == (2, 65535 // 924)
    # the replaced tuple is left as it was
    assert list(held) == snapshot and _fusion_tables[m] is not held
    assert [fusion_weight_char(m, alpha) for alpha in (12, 10, 8)] == shallow
    assert deep == sum((unrestricted(l, m) for l in range(0, 13, 2)), QPolynomial.zero())
    assert len(fills) == 4
    # a wider request for a shallower slice refills down to the held depth
    wide = kostka_module._fusion_table(Composition(m), 2, 100)
    assert fills[4:] == [(m, 6)] and len(wide) == 8 and wide[0][1] >= 100
    # no new slice, but four orbit items of one sign: 4 * 66 needs two bytes,
    # so the wider request refills at the held depth
    qkostka.clear_caches()
    fills.clear()
    fusion_weight_char((5, 2), 1)
    assert _fusion_tables[(5, 2)][0] == (1, 3)
    assert euler_characteristic_bgg((5, 2), 1, 1) == cold
    assert _fusion_tables[(5, 2)] == cold_wide
    assert _fusion_tables[(5, 2)][0] == (2, 65535 // 66)
    assert fills == [((5, 2), 4), ((5, 2), 4)]
    # requests the held table serves fill nothing
    for alpha in range(-10, 11):
        want = sum((unrestricted(l, (5, 2)) for l in range(abs(alpha), 10, 2)), QPolynomial.zero())
        assert fusion_weight_char((5, 2), alpha) == want, alpha
    assert euler_characteristic_bgg((5, 2), 1, 1) == cold
    assert len(fills) == 2
    qkostka.clear_caches()


def _compositions(max_size: int, max_width: int) -> Iterator[tuple[int, ...]]:
    """Every composition of weighted size <= max_size and width <= max_width,
    inner zeros included and trailing zeros left out."""

    def rec(parts: list[int], size: int) -> Iterator[tuple[int, ...]]:
        if parts and parts[-1]:
            yield tuple(parts)
        if len(parts) < max_width:
            a = len(parts) + 1
            for count in range((max_size - size) // a + 1):
                yield from rec(parts + [count], size + a * count)

    return rec([], 0)


def test_fusion_slices_match_unrestricted_suffix_sums_in_any_request_order():
    # the bottom-up walk over suffix sums S_c against the top-down fermionic
    # walk that `unrestricted` keeps, whatever order the slices are asked in
    rng = random.Random(20241019)
    compositions = 0
    for parts in _compositions(20, 5):
        m = Composition(parts)
        size = weighted_size(m)
        want = {}
        total = QPolynomial.zero()
        for l in range(size, -1, -2):
            total = total + unrestricted(l, m)
            want[l] = total
        ascending = sorted(range(-size - 2, size + 3), key=abs)
        shuffled = ascending[:]
        rng.shuffle(shuffled)
        for order in (ascending, ascending[::-1], shuffled):
            _fusion_tables.pop(parts, None)
            for alpha in order:
                got = fusion_weight_char(m, alpha)
                assert got == want.get(abs(alpha), QPolynomial.zero()), (parts, alpha)
        compositions += 1
    assert compositions == 1124
    qkostka.clear_caches()


def test_fusion_char_dimensions():
    # q = 1 recovers tensor-product weight multiplicities of sl2
    m = Composition((3,))  # three doublets
    assert fusion_weight_char(m, 1).evaluate_at_one() == 3
    assert fusion_weight_char(m, 3).evaluate_at_one() == 1
    assert fusion_weight_char(m, 0).evaluate_at_one() == 0  # parity
    # the weight-alpha space of the tensor product of m_a copies of the
    # spin-a module V_a, whose weights are -a, -a + 2, .., a
    for parts in _compositions(14, 14):
        weights = {0: 1}
        for a, count in enumerate(parts, start=1):
            for _ in range(count):
                product = {}
                for w, mult in weights.items():
                    for step in range(-a, a + 1, 2):
                        product[w + step] = product.get(w + step, 0) + mult
                weights = product
        size = weighted_size(parts)
        for alpha in range(-size - 2, size + 3):
            got = fusion_weight_char(parts, alpha).evaluate_at_one()
            assert got == weights.get(alpha, 0), (parts, alpha)


def test_fusion_char_hook_frozen():
    assert fusion_char_hook(2, 1, 0) == poly({0: 1, 1: 1, 2: 2})
    assert fusion_char_hook(2, 1, 2) == poly({0: 1, 1: 1, 2: 1})
    assert fusion_char_hook(2, 1, 1).is_zero()  # parity


def test_fusion_char_hook_matches_generic_route():
    for N in range(0, 13):
        for j in range(0, 5):
            parts = [0] * max(1, j + 1)
            parts[0] = N
            parts[j] += 1
            m = Composition(tuple(parts))
            for l in range(0, N + j + 2):
                assert fusion_char_hook(N, j, l) == fusion_weight_char(m, l), (N, j, l)


def test_reversed_char_single_column():
    from qkostka.qexact import gaussian_binomial

    assert reversed_char_1N(1, 0, 0) == poly({0: 1, 1: 1})
    assert reversed_char_1N(1, 0, 1) == poly({1: 1})
    assert reversed_char_1N(1, 0, 5).is_zero()
    for n in range(0, 5):
        for i in (0, 1):
            N = 2 * n + i
            m = Composition((N,)) if N else Composition(())
            h = n * (n + i)
            for s in range(0, n + 2):
                want = fusion_weight_char(m, 2 * s + i).substitute_inverse().shifted(h)
                assert reversed_char_1N(n, i, s) == want


def test_top_degree_matches_fusion_char():
    for parts in [(2,), (4,), (2, 1), (1, 1), (6,), (2, 2)]:
        m = Composition(parts)
        size = weighted_size(m)
        degrees = [
            fusion_weight_char(m, alpha).max_exponent()
            for alpha in range(size % 2, size + 1, 2)
            if not fusion_weight_char(m, alpha).is_zero()
        ]
        assert max(degrees) == top_degree_h(m)


def test_level_monotonicity():
    # coefficients grow with the level and are capped by the unrestricted value
    m = Composition((6,))
    cap = unrestricted(0, m)
    prev = restricted_fermionic(0, m, 1)
    for k in (2, 3, 4, 5, 6):
        cur = restricted_fermionic(0, m, k)
        for num, c in prev.terms():
            assert cur.coefficient(Fraction(num, 4)) >= c
        for num, c in cur.terms():
            assert c <= cap.coefficient(Fraction(num, 4))
        prev = cur
    assert restricted_fermionic(0, m, 6) == cap


def test_restricted_fermionic_matches_reference():
    nonzero = 0
    for k in range(1, 6):
        for m in admissible_compositions(10, k):
            for l in range(k + 1):
                want = _reference_restricted_fermionic(l, m, k)
                assert restricted_fermionic(l, m, k) == want, (l, m, k)
                nonzero += not want.is_zero()
    assert nonzero > 500


def test_restricted_fermionic_walk_matches_reference():
    # The top-down walk starts at level min(k, N) with N = (|m| - l)/2 and
    # prunes on (A(m-2s))_a < v_a; hold it to the bottom-up enumeration.
    cases = [
        (l, m, k)
        for k in range(1, 8)
        for m in admissible_compositions(10, k)
        for l in range(k + 1)
    ]
    # the unrestricted levels k = |m| and |m| + 1
    for m in admissible_compositions(10, 10):
        size = weighted_size(m)
        for k in (max(size, 1), size + 1):
            cases += [(l, m, k) for l in range(min(k, size) + 1)]
    target = len(cases) + 300
    rng = random.Random(9)
    for _ in range(150):
        # one large spin: levels above N are left out of the walk
        k = rng.randint(4, 12)
        spin = rng.randint(1, k)
        m = (0,) * (spin - 1) + (rng.randint(1, 2),)
        cases.append((rng.randint(0, k), m, k))
    while len(cases) < target:
        k = rng.randint(1, 10)
        m = tuple(rng.choice((0, 0, 1, 2)) for _ in range(rng.randint(1, k)))
        if weighted_size(m) <= 16:
            cases.append((rng.randint(0, k), m, k))
    nonzero = above_n = 0
    for l, m, k in cases:
        want = _reference_restricted_fermionic(l, m, k)
        assert restricted_fermionic(l, m, k) == want, (l, m, k)
        if not want.is_zero():
            nonzero += 1
            above_n += 2 * k > weighted_size(m) - l
    assert nonzero > 2500
    assert above_n > 2000


def test_restricted_fermionic_beyond_native_integers():
    # q = 1 values of 100 and 68 bits: the packed sum needs digits wider
    # than 8 bytes
    for l, m, k in ((0, (200,), 2), (0, (100,), 3)):
        got = restricted_fermionic(l, m, k)
        assert got.evaluate_at_one() > 2**64
        assert got == _reference_restricted_fermionic(l, m, k), (l, m, k)
    # the reference is too slow here: hold the q = 1 values to the fusion rule
    m, k = (260,), 2
    values = [restricted_fermionic(l, m, k).evaluate_at_one() for l in range(k + 1)]
    assert values == list(structure_constants(m, k))
    assert values[0] > 2**128


def _reference_alternating_items(l, k, size):
    """(sign, shift, unrestricted weight) of the signed sum, by a loop that
    finds its own end: it breaks once a reflected weight passes size."""
    items = []
    i = 0
    while True:
        w = 2 * (k + 2) * i
        if w + l <= size:
            items.append((1, (k + 2) * i * i + (l + 1) * i, w + l))
        if i:
            if w - l - 2 > size:
                break
            items.append((-1, (k + 2) * i * i - (l + 1) * i, w - l - 2))
        i += 1
    return items


def _reference_alternating_sum_raw(l, m, k, source):
    """The signed sum as one out = out +- p.shifted(e) chain, term by term."""
    comp = as_composition(m).trimmed()
    kostka = unrestricted if source == "fermionic" else kostka_sl2_oracle
    out = QPolynomial.zero()
    for sign, shift, weight in _reference_alternating_items(l, k, weighted_size(comp)):
        term = kostka(weight, comp).shifted(shift)
        out = out + term if sign > 0 else out - term
    return out


def test_alternating_items_bounded_before_the_loop_match_the_breaking_loop(monkeypatch):
    # the unrestricted polynomial stands in as its weight and the sum as its
    # item list, so every (k, l, |m|) with k <= 11 and |m| < 200 is cheap
    monkeypatch.setattr(kostka_module, "unrestricted", lambda weight, comp: weight)
    monkeypatch.setattr(kostka_module, "shifted_sum", list)
    for k in range(1, 12):
        for l in range(k + 1):
            for size in range(200):
                want = _reference_alternating_items(l, k, size)
                assert alternating_sum_raw(l, (size,), k) == want, (l, k, size)


def test_alternating_sum_matches_the_reference_chain():
    # compositions up to two spins wider than the level: the raw sum is
    # defined there too, and the restricted route must clamp them to zero
    nonzero = 0
    for k in range(1, 6):
        for m in admissible_compositions(10, k + 2):
            for l in range(k + 1):
                for source in ("fermionic", "charge"):
                    want = _reference_alternating_sum_raw(l, m, k, source)
                    assert alternating_sum_raw(l, m, k, source) == want, (l, m, k, source)
                    restricted = restricted_alternating(l, m, k, source)
                    if m.width <= k:
                        assert restricted == want, (l, m, k, source)
                        nonzero += not want.is_zero()
                    else:
                        assert restricted.is_zero(), (l, m, k, source)
    assert nonzero > 1000


def test_unrestricted_terms_are_the_same_one_level_higher():
    # unrestricted reads level max(|m|, l, 1) alone; the level above it
    # must give the very same term list
    checked = 0
    for m in admissible_compositions(20, 4):
        size = weighted_size(m)
        for l in range(size % 2, size + 1, 2):
            k = max(size, l, 1)
            terms = kostka_module._fermionic_terms(l, m, k)
            assert kostka_module._fermionic_terms(l, m, k + 1) == terms, (l, m)
            checked += 1
    assert checked == 6101


def test_the_walk_gives_the_one_term_at_n_zero():
    # at l = |m| (N = 0) the walk starts at level 1, where v_1 = 1 exactly
    # when l = k; the one vector s = 0 must still pass and give q^0
    compositions = admissible_compositions(12, 12)
    assert Composition(()) in compositions
    cases = at_level_l = 0
    for m in compositions:
        size = weighted_size(m)
        for k in range(max(size, m.width, 1), size + 4):
            assert kostka_module._fermionic_terms(size, m, k) == [(1, 0, ())], (m, k)
            assert restricted_fermionic(size, m, k) == QPolynomial.one(), (m, k)
            cases += 1
            at_level_l += size == k
    assert (cases, at_level_l) == (1087, 271)


def test_routes_sweep_walks_each_polynomial_once(monkeypatch):
    # one top-down walk per restricted polynomial, and one slice fill per
    # composition that yields every unrestricted polynomial the Euler route reads
    qkostka.clear_caches()
    calls = _count_calls(monkeypatch, kostka_module, "_fermionic_terms")
    fills = _record_fills(monkeypatch)
    (result,) = run_suites(["routes"], VerifyConfig(max_weight=13, max_level=4))
    assert result.passed
    assert calls == [1658]
    assert len(fills) == len({parts for parts, _ in fills}) == 194
    qkostka.clear_caches()


def test_fermionic_walk_memory_does_not_grow_with_the_level():
    # the walk reads (Am)_a only up to a = min(k, N), so neither a huge level
    # nor the unrestricted level |m| may cost a list that long
    for call, want in (
        (lambda: restricted_fermionic(0, (4,), 10**7), QPolynomial.q_power(2) + QPolynomial.q_power(4)),
        (lambda: unrestricted(2 * 10**6, (2 * 10**6,)), QPolynomial.one()),
    ):
        tracemalloc.start()
        try:
            got = call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak < 1 << 20
