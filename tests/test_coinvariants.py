import random
from itertools import permutations
from math import gcd

import pytest

from qkostka.coinvariants import (
    FunctionalModelSpec,
    OracleScaleExceeded,
    _integer_rank,
    _partitions_of,
    build_constraint_matrix,
    restricted_kostka_oracle,
)
from qkostka.compositions import Composition, weighted_size
from qkostka.kostka import restricted_fermionic
from qkostka.qexact import QPolynomial
from qkostka.verify import admissible_compositions


def spec(l, parts, k):
    return FunctionalModelSpec.from_parameters(l, Composition(parts), k)


# The orbit-listing row builders and the dense elimination that the
# multiset-split rows and the sparse elimination replaced, kept verbatim as
# references for them.


def _orbit(lam):
    return sorted(set(permutations(lam)))


def _diagonal_rows(expansions, a, keep):
    rows = {}
    for col, orbit in enumerate(expansions):
        for e in orbit:
            zdeg = sum(e[:a])
            if not keep(zdeg):
                continue
            key = (zdeg, tuple(sorted(e[a:])))
            row = rows.setdefault(key, {})
            row[col] = row.get(col, 0) + 1
    return [rows[key] for key in sorted(rows)]


def _zero_substitution_rows(expansions):
    rows = {}
    for col, orbit in enumerate(expansions):
        for e in orbit:
            if e[0] != 0:
                continue
            key = tuple(sorted(e[1:]))
            row = rows.setdefault(key, {})
            row[col] = row.get(col, 0) + 1
    return [rows[key] for key in sorted(rows)]


def _reference_rows(spec, basis):
    s, k, l, m = spec.variable_count, spec.level, spec.weight, spec.composition
    if s == 0:
        return []
    expansions = [_orbit(lam) for lam in basis]
    rows = []
    if s >= k + 1:
        rows.extend(_diagonal_rows(expansions, k + 1, lambda zd: True))
    for a in range(2, s + 1):
        bound = sum(min(a, i) * mi for i, mi in enumerate(m.parts, start=1)) - a
        rows.extend(_diagonal_rows(expansions, a, lambda zd, b=bound: zd > b))
    rows.extend(_zero_substitution_rows(expansions))
    order = k - l + 2
    if s >= k - l + 1 and k - l + 1 >= 1:
        rows.extend(_diagonal_rows(expansions, k - l + 1, lambda zd: zd < order))
    return rows


def _dense_integer_rank(rows, ncols):
    dense = [[row.get(c, 0) for c in range(ncols)] for row in rows]
    rank = 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(dense)):
            if dense[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        dense[rank], dense[pivot] = dense[pivot], dense[rank]
        pv = dense[rank][col]
        for r in range(rank + 1, len(dense)):
            f = dense[r][col]
            if not f:
                continue
            new = [pv * x - f * y for x, y in zip(dense[r], dense[rank])]
            g = 0
            for x in new:
                g = gcd(g, x)
            if g > 1:
                new = [x // g for x in new]
            dense[r] = new
        rank += 1
        if rank == len(dense):
            break
    return rank


def _oracle_grid():
    """Every spec with |m| <= 8, k <= 4 and at most 4 variables."""
    out = []
    for m in admissible_compositions(8, 8):
        size = weighted_size(m)
        for k in range(1, 5):
            for l in range(size % 2, min(size, k) + 1, 2):
                if (size - l) // 2 <= 4:
                    out.append(FunctionalModelSpec.from_parameters(l, m, k))
    return out


def test_spec_validation():
    s = spec(0, (4,), 2)
    assert s.variable_count == 2
    with pytest.raises(ValueError):
        spec(1, (4,), 2)  # parity
    with pytest.raises(ValueError, match="must not exceed"):
        spec(3, (1,), 3)  # l exceeds |m|
    for l, parts, k in [(1, (1,), 0), (0, (4,), -1), (0, (), 0)]:
        with pytest.raises(ValueError, match="level must be positive"):
            spec(l, parts, k)


def test_spec_takes_any_composition_like_and_refuses_what_is_not_one():
    # a plain tuple is turned into the Composition from_parameters would build
    direct = FunctionalModelSpec(2, 2, 0, (4,))
    assert direct == spec(0, (4,), 2)
    assert isinstance(direct.composition, Composition)
    assert restricted_kostka_oracle(direct) == restricted_kostka_oracle(spec(0, (4,), 2))
    with pytest.raises(ValueError, match="multiplicities must be integers"):
        FunctionalModelSpec(2, 2, 0, (4.0,))
    for counts in [(2.0, 2, 0), (2, 2.5, 0), (2, 2, "0")]:
        with pytest.raises(ValueError, match="variable count, level and weight must be integers"):
            FunctionalModelSpec(*counts, (4,))


def test_variable_cap():
    with pytest.raises(OracleScaleExceeded):
        restricted_kostka_oracle(spec(0, (12,), 3))


def test_spec_refuses_a_weight_outside_the_level():
    # the shared level and weight rule, with its message, as on every route
    for l, parts, k in [(2, (2,), 1), (4, (4,), 2), (3, (1, 1), 2), (-2, (), 1), (-1, (1,), 3)]:
        with pytest.raises(ValueError, match="weight must satisfy 0 <= l <= k"):
            spec(l, parts, k)


def test_empty_system_is_constants():
    # zero variables: the model degenerates to the constants; l > k is refused
    with pytest.raises(ValueError, match="weight must satisfy"):
        spec(2, (2,), 1)
    assert restricted_kostka_oracle(spec(0, (), 1)) == QPolynomial.one()


def test_hand_sized_instances():
    assert restricted_kostka_oracle(spec(0, (2,), 1)) == QPolynomial.q_power(1)
    assert restricted_kostka_oracle(spec(1, (1, 1), 2)) == QPolynomial.q_power(1)
    assert restricted_kostka_oracle(spec(0, (2, 1), 2)) == QPolynomial.q_power(2)
    assert restricted_kostka_oracle(spec(0, (6,), 2)) == QPolynomial.from_integer_terms(
        {5: 1, 6: 1, 7: 1, 9: 1}
    )


def test_basis_and_constraints_shape():
    s = spec(0, (2,), 1)
    basis, rows = build_constraint_matrix(s, 0)
    assert basis == [] and rows == []  # the constant is not divisible by z_1
    basis, rows = build_constraint_matrix(s, 1)
    assert len(basis) == 1  # z
    assert not [r for r in rows if any(r)]


def test_wide_compositions_vanish():
    # a factor wider than the level is killed by the equal-variables condition
    for parts, l, k in [((0, 1), 0, 1), ((0, 2), 0, 1), ((1, 0, 1), 0, 2)]:
        assert restricted_kostka_oracle(spec(l, parts, k)).is_zero()


def test_oracle_matches_fermionic_small():
    # s <= 3 keeps this fast; the acceptance gate runs the full grid
    for k in (1, 2):
        for parts in [(2,), (4,), (6,), (2, 1), (1, 1), (2, 2), (0, 2)]:
            size = weighted_size(parts)
            for l in range(size % 2, k + 1, 2):
                if (size - l) // 2 > 3:
                    continue
                got = restricted_kostka_oracle(spec(l, parts, k))
                want = restricted_fermionic(l, parts, k)
                assert got == want, (k, parts, l)


def test_constraint_rows_and_ranks_match_the_orbit_references():
    # the e_s-divisible basis without the (4) rows and the rows (2) implies
    # leaves the same nullity as every reference row on the full basis
    grid = _oracle_grid()
    assert len(grid) == 476
    ranked = 0
    for sp in grid:
        s = sp.variable_count
        fc = sum(sp.composition.parts)
        for d in range(s * max(fc - 1, 0) + 1):
            basis, rows = build_constraint_matrix(sp, d)
            full = _partitions_of(d, s, fc - 1)
            want = len(full) - _dense_integer_rank(_reference_rows(sp, full), len(full))
            assert len(basis) - _integer_rank(rows, len(basis)) == want, (sp, d)
            ranked += bool(full)
    assert ranked > 3000


def test_integer_rank_matches_dense_elimination_on_random_matrices():
    rng = random.Random(12)
    full = deficient = 0
    for _ in range(200):
        ncols = rng.randint(1, 8)
        rows = []
        for _ in range(rng.randint(0, 10)):
            roll = rng.random()
            if rows and roll < 0.2:
                rows.append(dict(rng.choice(rows)))  # duplicate
            elif roll < 0.3:
                rows.append({})  # zero row
            elif len(rows) >= 2 and roll < 0.5:
                # an integer combination of two earlier rows
                x, y = rng.sample(rows, 2)
                f, g = rng.randint(-3, 3), rng.randint(-3, 3)
                combo = {c: f * x.get(c, 0) + g * y.get(c, 0) for c in set(x) | set(y)}
                rows.append({c: v for c, v in combo.items() if v})
            else:
                cols = rng.sample(range(ncols), rng.randint(1, ncols))
                rows.append({c: rng.choice([-6, -2, -1, 1, 2, 3, 4, 9]) for c in cols})
        rng.shuffle(rows)
        want = _dense_integer_rank(rows, ncols)
        assert _integer_rank(rows, ncols) == want, (rows, ncols)
        full += want == ncols
        deficient += 0 < want < min(ncols, len(rows))
    assert full > 20 and deficient > 20
