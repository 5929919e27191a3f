import math
import random
import sys
import time
import tracemalloc
from bisect import bisect_left

import pytest

import qkostka
from qkostka.compositions import (
    Composition,
    InvariantError,
    ShapeContent,
    bridge_to_partition,
    norm_ss,
    weighted_size,
)
from qkostka.charge import (
    _oracle_tables,
    charge,
    enumerate_ssyt,
    kostka_foulkes,
    kostka_sl2_oracle,
    reading_word,
)
from qkostka.qexact import QPolynomial, gaussian_binomial
from qkostka.verify import VerifyConfig, admissible_compositions, run_suites


# Reference oracles: the cell-by-cell enumerator and the cyclic-scan charge
# the library used before its letter-by-letter and bisection rewrite, kept
# verbatim so the fast versions are held to the same tableaux in the same
# order and to the same charges.


def _reference_enumerate_ssyt(sc):
    len1, len2 = sc.shape
    counts = list(sc.content)
    if sum(counts) != len1 + len2:
        return []
    letters = len(counts)
    results = []
    row1 = [0] * len1
    row2 = [0] * len2

    def fill_row1(i):
        if i == len1:
            fill_row2(0)
            return
        lo = row1[i - 1] if i else 1
        for v in range(lo, letters + 1):
            if counts[v - 1]:
                counts[v - 1] -= 1
                row1[i] = v
                fill_row1(i + 1)
                counts[v - 1] += 1

    def fill_row2(i):
        if i == len2:
            results.append((tuple(row1), tuple(row2)))
            return
        lo = max(row2[i - 1] if i else 1, row1[i] + 1)
        for v in range(lo, letters + 1):
            if counts[v - 1]:
                counts[v - 1] -= 1
                row2[i] = v
                fill_row2(i + 1)
                counts[v - 1] += 1

    fill_row1(0)
    return results


def _reference_charge(word):
    if not word:
        return 0
    maxletter = max(word)
    counts = [0] * maxletter
    for v in word:
        if v < 1:
            raise ValueError("letters must be positive")
        counts[v - 1] += 1
    if any(counts[i] < counts[i + 1] for i in range(maxletter - 1)):
        raise ValueError("charge needs partition content")

    remaining = list(word)
    total = 0
    while remaining:
        n = len(remaining)
        pos = max(i for i in range(n) if remaining[i] == 1)
        chosen = [pos]
        letter = 2
        while letter <= max(remaining):
            found = -1
            for step in range(1, n):
                i = (pos - step) % n
                if remaining[i] == letter:
                    found = i
                    break
            if found < 0:
                break
            chosen.append(found)
            pos = found
            letter += 1
        index = 0
        for a in range(1, len(chosen)):
            if chosen[a] > chosen[a - 1]:
                index += 1
            total += index
        for i in sorted(chosen, reverse=True):
            del remaining[i]
    return total


def test_enumerate_ssyt_counts():
    assert len(enumerate_ssyt(ShapeContent((2, 2), (1, 1, 1, 1)))) == 2
    assert len(enumerate_ssyt(ShapeContent((2, 2), (2, 2)))) == 1
    assert len(enumerate_ssyt(ShapeContent((3, 1), (1, 1, 1, 1)))) == 3
    assert len(enumerate_ssyt(ShapeContent((4, 2), (2, 2, 1, 1)))) == 4


def test_rows_weakly_increase_columns_strictly():
    for t in enumerate_ssyt(ShapeContent((3, 2), (2, 2, 1))):
        top, bottom = t
        assert all(a <= b for a, b in zip(top, top[1:]))
        assert all(a <= b for a, b in zip(bottom, bottom[1:]))
        assert all(a < b for a, b in zip(top, bottom))


def test_reading_word_convention():
    tableaux = enumerate_ssyt(ShapeContent((2, 2), (1, 1, 1, 1)))
    words = {reading_word(t) for t in tableaux}
    assert words == {(3, 4, 1, 2), (2, 4, 1, 3)}


def test_charge_values():
    assert charge((1, 2, 3)) == 3
    assert charge((3, 2, 1)) == 0
    assert charge((3, 4, 1, 2)) == 4
    assert charge((2, 4, 1, 3)) == 2
    assert charge(()) == 0


def test_kostka_foulkes_frozen():
    assert kostka_foulkes(ShapeContent((2, 2), (1, 1, 1, 1))) == QPolynomial.from_integer_terms(
        {2: 1, 4: 1}
    )
    assert kostka_foulkes(ShapeContent((2, 2), (2, 1, 1))) == QPolynomial.q_power(1)
    # shape equals content: single tableau of charge zero
    assert kostka_foulkes(ShapeContent((3, 2), (3, 2))) == QPolynomial.one()


def test_kostka_foulkes_counts_tableaux():
    for shape, content in [
        ((2, 2), (1, 1, 1, 1)),
        ((3, 1), (1, 1, 1, 1)),
        ((4, 2), (2, 2, 1, 1)),
        ((3, 3), (2, 2, 2)),
    ]:
        sc = ShapeContent(shape, content)
        assert kostka_foulkes(sc).evaluate_at_one() == len(enumerate_ssyt(sc))


def test_oracle_frozen_values():
    assert kostka_sl2_oracle(0, (2,)) == QPolynomial.q_power(1)
    assert kostka_sl2_oracle(2, (2,)) == QPolynomial.one()
    assert kostka_sl2_oracle(1, (2,)).is_zero()  # parity
    assert kostka_sl2_oracle(6, (4,)).is_zero()  # l > |m|
    assert kostka_sl2_oracle(0, (4,)) == QPolynomial.from_integer_terms({2: 1, 4: 1})


def test_oracle_single_column_closed_form():
    # for m = (1^N) the oracle reduces to a difference of two binomials
    for N in range(15):
        m = Composition((N,)) if N else Composition(())
        for l in range(N % 2, N + 1, 2):
            want = gaussian_binomial(N, (N - l) // 2) - gaussian_binomial(
                N, (N - l - 2) // 2
            )
            assert kostka_sl2_oracle(l, m) == want


def test_oracle_nonnegative_coefficients():
    for m in [(4,), (2, 1), (0, 2), (6,), (1, 0, 1)]:
        size = sum(a * c for a, c in enumerate(m, start=1))
        for l in range(size % 2, size + 1, 2):
            poly = kostka_sl2_oracle(l, m)
            assert all(c > 0 for _, c in poly.terms())


def test_bridge_shapes_feed_the_oracle():
    sc = bridge_to_partition((2, 1), 0)
    assert sc.shape == (2, 2)
    assert sorted(sc.content, reverse=True) == list(sc.content)


def test_enumerate_ssyt_matches_reference_on_every_bridge():
    shapes = 0
    for m in admissible_compositions(11, 11):
        size = weighted_size(m)
        for l in range(size % 2, size + 1, 2):
            sc = bridge_to_partition(m, l)
            assert enumerate_ssyt(sc) == _reference_enumerate_ssyt(sc), sc
            shapes += 1
    assert shapes > 500


def test_enumerate_ssyt_matches_reference_off_partition_content():
    # contents the bridge never produces: gaps, increasing counts, overfull
    for shape, content in [
        ((0, 0), ()),
        ((2, 2), (1, 3)),
        ((3, 1), (0, 2, 2)),
        ((3, 2), (1, 2, 2)),
        ((2, 1), (3,)),
        ((4, 0), (1, 1, 1, 1)),
    ]:
        sc = ShapeContent(shape, content)
        assert enumerate_ssyt(sc) == _reference_enumerate_ssyt(sc), sc


def test_enumerate_ssyt_lists_first_rows_in_lexicographic_order():
    # the first row fixes the tableau, so the first rows strictly increase
    shapes = 0
    for m in admissible_compositions(11, 11):
        size = weighted_size(m)
        for l in range(size % 2, size + 1, 2):
            rows = [row1 for row1, _ in enumerate_ssyt(bridge_to_partition(m, l))]
            assert rows == sorted(set(rows)), (m, l)
            shapes += len(rows) > 1
    assert shapes > 300


def test_enumerate_ssyt_long_single_row_needs_no_recursion():
    # one tableau, whose 1200 letters are placed one value at a time
    n = 1200
    sc = ShapeContent((n, 0), (1,) * n)
    assert enumerate_ssyt(sc) == [(tuple(range(1, n + 1)), ())]
    assert kostka_foulkes(sc) == QPolynomial.q_power(719400)


def test_charge_matches_reference_on_random_words():
    rng = random.Random(20050303)
    for _ in range(5000):
        n = rng.randint(1, 12)
        # random partition content: weakly decreasing counts summing to n
        counts = []
        left = n
        while left:
            c = rng.randint(1, min(left, counts[-1] if counts else left))
            counts.append(c)
            left -= c
        word = [v for v, c in enumerate(counts, start=1) for _ in range(c)]
        rng.shuffle(word)
        assert charge(word) == _reference_charge(word), word


@pytest.mark.parametrize(
    "word", [(0,), (1, 0), (2, -1, 1), (2,), (1, 2, 2), (3, 1, 2, 3, 1)]
)
def test_charge_rejects_what_the_reference_rejects(word):
    with pytest.raises(ValueError) as ref:
        _reference_charge(word)
    with pytest.raises(ValueError) as new:
        charge(word)
    assert str(new.value) == str(ref.value)


# kostka_foulkes sums charge over the placement DAG without listing
# tableaux; hold it to the graded enumeration, both the library's own
# (enumerate_ssyt and charge) and the kept reference pair above.


def _graded_sum(sc, enumerate_, charge_):
    tally = {}
    for t in enumerate_(sc):
        c = charge_(reading_word(t))
        tally[c] = tally.get(c, 0) + 1
    return QPolynomial.from_integer_terms(tally)


def _assert_matches_graded_sums(sc):
    got = kostka_foulkes(sc)
    assert got == _graded_sum(sc, enumerate_ssyt, charge), sc
    assert got == _graded_sum(sc, _reference_enumerate_ssyt, _reference_charge), sc


def test_kostka_foulkes_matches_graded_tableaux_on_every_bridge():
    shapes = 0
    for m in admissible_compositions(12, 12):
        size = weighted_size(m)
        for l in range(size % 2, size + 1, 2):
            _assert_matches_graded_sums(bridge_to_partition(m, l))
            shapes += 1
    assert shapes > 1500


def test_kostka_foulkes_matches_graded_tableaux_on_random_contents():
    rng = random.Random(20051018)
    for _ in range(200):
        n = rng.randint(1, 16)
        counts = []
        left = n
        while left:
            c = rng.randint(1, min(left, counts[-1] if counts else left))
            counts.append(c)
            left -= c
        len2 = rng.randint(0, n // 2)
        _assert_matches_graded_sums(ShapeContent((n - len2, len2), counts))


def test_kostka_foulkes_off_partition_content_matches_graded_sum():
    # the graded sum raises on the first tableau it grades, so an
    # off-partition content raises exactly when the shape admits a tableau
    for shape, content in [
        ((0, 0), ()),
        ((2, 2), (1, 3)),
        ((3, 1), (0, 2, 2)),
        ((3, 2), (1, 2, 2)),
        ((2, 1), (3,)),
        ((4, 0), (1, 1, 1, 1)),
        ((3, 2), (2, 2, 1, 0, 0)),
    ]:
        sc = ShapeContent(shape, content)
        try:
            want = _graded_sum(sc, _reference_enumerate_ssyt, _reference_charge)
        except ValueError as ref:
            with pytest.raises(ValueError) as new:
                kostka_foulkes(sc)
            assert str(new.value) == str(ref), sc
        else:
            assert kostka_foulkes(sc) == want, sc


def test_kostka_foulkes_long_single_row_needs_no_recursion():
    # one tableau, whose reading word 1 2 ... n wraps at every letter
    n = 3000
    start = time.perf_counter()
    got = kostka_foulkes(ShapeContent((n, 0), (1,) * n))
    assert got == QPolynomial.q_power(n * (n - 1) // 2)
    assert time.perf_counter() - start < 2.0


# The oracle keeps one placement-DAG pass per content. Its answers must not
# depend on the order the weights are asked in, and a content must get a
# second pass only when a request needs a longer row 2.


def test_oracle_answers_match_graded_tableaux_in_any_request_order():
    rng = random.Random(20051018)
    shapes = 0
    for m in admissible_compositions(12, 12):
        size = weighted_size(m)
        want = {}
        for l in range(size % 2, size + 1, 2):
            sc = bridge_to_partition(m, l)
            kf = kostka_foulkes(sc)
            assert kf == _graded_sum(sc, enumerate_ssyt, charge), sc
            want[l] = kf.substitute_inverse().shifted(norm_ss(m))
        # weights out of range or of the wrong parity are zero, cache or not
        shuffled = list(range(-1, size + 2))
        rng.shuffle(shuffled)
        ascending_row2 = sorted(want, reverse=True)
        for order in (ascending_row2, ascending_row2[::-1], shuffled):
            qkostka.clear_caches()
            for l in order:
                assert kostka_sl2_oracle(l, m) == want.get(l, QPolynomial.zero()), (m, l, order)
        shapes += len(want)
    assert shapes > 1500


def _charge_module():
    # qkostka.charge is the function, so reach the module through sys.modules
    return sys.modules["qkostka.charge"]


def _record_passes(monkeypatch):
    module = _charge_module()
    passes = []
    walk = module._charge_by_row2

    def recorded(counts, cap1, cap2):
        passes.append((tuple(counts), cap1, cap2))
        return walk(counts, cap1, cap2)

    monkeypatch.setattr(module, "_charge_by_row2", recorded)
    return passes


def test_oracle_pass_frees_row_1_and_caps_row_2_at_the_longest_request(monkeypatch):
    passes = _record_passes(monkeypatch)
    qkostka.clear_caches()
    kostka_sl2_oracle(396, (400,))
    assert [caps for _, *caps in passes] == [[400, 2]]
    # the first pass answers every weight down to the requested one; a
    # longer row 2 reruns it capped there
    m = Composition((30,))
    order = (20, 30, 24, 28, 16)
    want = [
        kostka_foulkes(bridge_to_partition(m, l)).substitute_inverse().shifted(norm_ss(m))
        for l in order
    ]
    qkostka.clear_caches()
    del passes[:]
    caps = []
    for l, poly in zip(order, want):
        assert kostka_sl2_oracle(l, m) == poly
        caps.append(_oracle_tables[m.parts][0])
    assert caps == [5, 5, 5, 5, 7]
    assert [caps for _, *caps in passes] == [[30, 5], [30, 7]]


def test_oracle_refuses_a_charge_above_the_norm(monkeypatch):
    # a weight-|m| tableau has charge norm_ss(m), so one less sends its
    # reversed exponent below q^0
    module = _charge_module()
    norm = module.norm_ss
    monkeypatch.setattr(module, "norm_ss", lambda m: norm(m) - 1)
    qkostka.clear_caches()
    with pytest.raises(InvariantError, match="reversal produced a negative exponent"):
        kostka_sl2_oracle(0, (4,))
    assert _oracle_tables == {}


def test_the_one_row_oracle_reads_the_charge_from_the_counts(monkeypatch):
    # at l = |m| the oracle answers q^(norm - n(c)) with no pass; hold it to
    # the pass over the one-row shape for every m with |m| <= 12
    module = _charge_module()
    cases = []
    for m in admissible_compositions(12, 12):
        size = weighted_size(m)
        tally = module._charge_by_row2(bridge_to_partition(m, size).content, size, 0)
        want = QPolynomial.from_integer_terms({norm_ss(m) - e: k for e, k in tally[0].items()})
        cases.append((m, size, want))
    passes = _record_passes(monkeypatch)
    qkostka.clear_caches()
    for m, size, want in cases:
        assert kostka_sl2_oracle(size, m) == want, m
    assert passes == [] and _oracle_tables == {}
    assert len(cases) == 272
    # the closed form keeps the refusal of a negative exponent
    norm = module.norm_ss
    monkeypatch.setattr(module, "norm_ss", lambda m: norm(m) - 1)
    with pytest.raises(InvariantError, match="reversal produced a negative exponent"):
        kostka_sl2_oracle(4, (4,))


def test_the_one_row_oracle_memory_does_not_grow_with_the_size():
    # the |m| letters of the one-row content are never built
    for m in ((10**6,), (10**5, 2 * 10**5, 10**5)):
        size = weighted_size(m)
        tracemalloc.start()
        try:
            got = kostka_sl2_oracle(size, m)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == QPolynomial.one()
        assert peak < 1 << 20


def test_routes_grid_runs_one_oracle_pass_per_content(monkeypatch):
    passes = _record_passes(monkeypatch)
    qkostka.clear_caches()
    (result,) = run_suites(["routes"], VerifyConfig(max_weight=13, max_level=4))
    assert result.passed
    # of the grid's 194 compositions, the empty one and 1^1 are asked only
    # at l = |m|, which is answered from the counts without a pass
    assert len(passes) == len({counts for counts, _, _ in passes}) == 192
    assert (0,) not in _oracle_tables and (1,) not in _oracle_tables


# The placement-DAG pass keys each state by the row of every live subword's
# last pick. The position-keyed pass it replaced is kept here verbatim as the
# reference: both must give the same {row-2 length: {charge: count}} tallies,
# shape by shape and under any caps, and refuse the same contents.


def _reference_charge_by_row2(counts, cap1, cap2):
    n = sum(counts)
    top = counts[0] if counts else 0
    ends = [0] * top
    for c in counts:
        for s in range(min(c, top)):
            ends[s] += 1
    frontier = {(0, (2 * n,) * top): {0: 1}}
    placed = 0
    for v, (c, after) in enumerate(zip(counts, (*counts[1:], 0))):
        nxt = {}
        for (r2, picks), tally in frontier.items():
            r1 = placed - r2
            for x in range(max(0, r1 + c - cap1), min(c, r1 - r2, cap2 - r2) + 1):
                free = [*range(r2, r2 + x), *range(n + r1, n + r1 + c - x)]
                taken = []
                shift = 0
                for s, pos in enumerate(picks[:c]):
                    j = bisect_left(free, pos)
                    if j:
                        taken.append(free.pop(j - 1))
                    else:
                        taken.append(free.pop())
                        shift += ends[s] - v
                into = nxt.setdefault((r2 + x, tuple(taken[:after])), {})
                for e, k in tally.items():
                    into[e + shift] = into.get(e + shift, 0) + k
        frontier = nxt
        placed += c
    if frontier and any(a < b for a, b in zip(counts, counts[1:])):
        raise ValueError("charge needs partition content")
    out = {}
    for (r2, _), tally in frontier.items():
        out[r2] = tally
    return out


def test_row_keyed_pass_matches_position_keyed_reference_on_every_bridge():
    bridges = 0
    for m in admissible_compositions(16, 16):
        size = weighted_size(m)
        for l in range(size % 2, size + 1, 2):
            sc = bridge_to_partition(m, l)
            want = _reference_charge_by_row2(sc.content, *sc.shape)
            assert _charge_module()._charge_by_row2(sc.content, *sc.shape) == want, sc
            bridges += 1
    assert bridges == 6813


def test_row_keyed_pass_matches_position_keyed_reference_under_random_caps():
    rng = random.Random(20240524)
    capped_row_1 = 0
    for _ in range(300):
        n = rng.randint(1, 18)
        counts = []
        left = n
        while left:
            c = rng.randint(1, min(left, counts[-1] if counts else left))
            counts.append(c)
            left -= c
        cap2 = rng.randint(0, n // 2)
        # row 1 below n - cap2 leaves some shapes out, and some draws out entirely
        cap1 = rng.randint(max(0, n - cap2 - 3), n)
        capped_row_1 += cap1 < n - cap2
        want = _reference_charge_by_row2(counts, cap1, cap2)
        assert _charge_module()._charge_by_row2(counts, cap1, cap2) == want, (counts, cap1, cap2)
    assert capped_row_1 > 100


@pytest.mark.parametrize(
    "counts", [(1, 3), (0, 2, 2), (1, 2, 2), (2, 2, 1, 0, 0), (1, 1, 2), (2, 3, 1)]
)
def test_row_keyed_pass_refuses_what_the_reference_refuses(counts):
    n = sum(counts)
    for cap1 in range(n + 1):
        for cap2 in range(n // 2 + 1):
            try:
                want = _reference_charge_by_row2(counts, cap1, cap2)
            except ValueError as ref:
                with pytest.raises(ValueError) as new:
                    _charge_module()._charge_by_row2(counts, cap1, cap2)
                assert str(new.value) == str(ref), (counts, cap1, cap2)
            else:
                assert _charge_module()._charge_by_row2(counts, cap1, cap2) == want


# Each DAG state packs its {charge: count} tally into one int, with digits
# as wide as the content's bound on the paths into a state, and every pass
# reads its moves from one shared table. Hold both to the reference pass:
# digits wider than 8 bytes, merges of a lower charge into a held tally,
# passes that share the table with other contents, and the table's bound.


def _random_partition(rng, letters, parts):
    return sorted((rng.choice(parts) for _ in range(letters)), reverse=True)


def test_packed_pass_reads_digits_wider_than_8_bytes():
    pass_ = _charge_module()._charge_by_row2
    # m = 1^80 at weight 4: 2^80 paths bound a digit, and some charge is
    # reached by more than 2^64 tableaux
    sc = bridge_to_partition(Composition((80,)), 4)
    got = pass_(sc.content, *sc.shape)
    assert got == _reference_charge_by_row2(sc.content, *sc.shape)
    assert max(got[sc.shape[1]].values()) >= 1 << 64
    rng = random.Random(20261020)
    wide = 0
    for _ in range(40):
        counts = _random_partition(rng, rng.randint(40, 60), (1, 1, 1, 2, 2, 3))
        n = sum(counts)
        cap2 = rng.randint(1, 8)
        cap1 = rng.randint(max(0, n - cap2 - 3), n)
        wide += math.prod(min(c, cap2) + 1 for c in counts) >= 1 << 64
        assert pass_(counts, cap1, cap2) == _reference_charge_by_row2(counts, cap1, cap2), (counts, cap1, cap2)
    assert wide > 10


def test_packed_pass_merges_a_lower_charge_into_a_held_tally():
    pass_ = _charge_module()._charge_by_row2
    # content 1123 with a row 2 of one cell: states are visited in the order
    # they were made, so 112/3 (charge 2) reaches the last state before
    # 113/2 (charge 1), whose lower charge shifts the held tally up a digit
    assert charge(reading_word(((1, 1, 2), (3,)))) == 2
    assert charge(reading_word(((1, 1, 3), (2,)))) == 1
    assert pass_((2, 1, 1), 4, 2) == {0: {3: 1}, 1: {1: 1, 2: 1}, 2: {1: 1}}
    # content 1234: charges 5, 4 and 3 reach row-2 length 1 in that order
    assert pass_((1, 1, 1, 1), 4, 2) == {0: {6: 1}, 1: {3: 1, 4: 1, 5: 1}, 2: {2: 1, 4: 1}}
    for counts in [(3, 2, 1), (2, 2, 2), (2, 2, 1, 1)]:
        n = sum(counts)
        assert pass_(counts, n, n // 2) == _reference_charge_by_row2(counts, n, n // 2), counts


def test_passes_sharing_the_move_table_match_fresh_passes():
    pass_ = _charge_module()._charge_by_row2
    rng = random.Random(20261021)
    draws = []
    for _ in range(30):
        counts = tuple(_random_partition(rng, rng.randint(1, 12), (1, 1, 2, 2, 3, 4)))
        n = sum(counts)
        draws.append((counts, n, rng.randint(0, n // 2)))
    fresh = {}
    for draw in draws:
        qkostka.clear_caches()
        fresh[draw] = pass_(*draw)
        assert fresh[draw] == _reference_charge_by_row2(*draw), draw
    qkostka.clear_caches()
    for draw in draws + draws[::-1] + rng.sample(draws, len(draws)):
        assert pass_(*draw) == fresh[draw], draw


def test_move_table_stays_within_its_bound(monkeypatch):
    module = _charge_module()

    def numbers(rows, c):
        # an entry's row and subword numbers: its key's rows and two tuples
        # per move
        return (2 * c + 3) * len(rows)

    qkostka.clear_caches()
    (result,) = run_suites(["routes"], VerifyConfig(max_weight=13, max_level=4))
    assert result.passed
    assert 0 < len(module._steps) <= module._STEPS_KEYS
    for (rows, c, _), moves in module._steps.items():
        held = len(rows) + sum(len(taken) + len(wrapped) for taken, wrapped in moves)
        assert held <= numbers(rows, c) <= module._STEP_NUMBERS
    # bounds the sweep overruns: a full table is emptied before it grows,
    # and an entry larger than its bound is not filed
    monkeypatch.setattr(module, "_STEPS_KEYS", 8)
    monkeypatch.setattr(module, "_STEP_NUMBERS", 30)
    qkostka.clear_caches()
    sizes, refused = [], 0
    moves = module._moves

    def recorded(rows, c, after):
        nonlocal refused
        found = moves(rows, c, after)
        filed = (rows, c, after) in module._steps
        assert filed == (numbers(rows, c) <= 30)
        refused += not filed
        sizes.append(len(module._steps))
        return found

    monkeypatch.setattr(module, "_moves", recorded)
    (result,) = run_suites(["routes"], VerifyConfig(max_weight=13, max_level=4))
    assert result.passed
    assert refused > 0
    assert max(sizes) == 8 and sizes.count(1) > 1
