"""Exact rank, kernel and modular screening."""

import copy
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lefkit import fixtures
from lefkit.complexes import boundary_matrix, homology
from lefkit.errors import InvalidModulus, ParseError
from lefkit.linalg import (
    ExactMatrix,
    _eliminate,
    _integer_rows,
    _normalize_row,
    kernel_basis,
    rank,
    rank_mod_p,
)
from lefkit.monomials import ArtinianFrame, multiplication_matrix


def cycle_signless_incidence(n):
    """Signless incidence matrix of the n-cycle (rows edges, cols vertices)."""
    entries = {}
    for i in range(n):
        entries[(i, i)] = 1
        entries[(i, (i + 1) % n)] = 1
    return ExactMatrix(n, n, entries)


CUBE_EDGES = [
    (0, 1), (0, 2), (0, 4), (1, 3), (1, 5), (2, 3),
    (2, 6), (3, 7), (4, 5), (4, 6), (5, 7), (6, 7),
]


def cube_signless_incidence():
    entries = {}
    for i, (a, b) in enumerate(CUBE_EDGES):
        entries[(i, a)] = 1
        entries[(i, b)] = 1
    return ExactMatrix(len(CUBE_EDGES), 8, entries)


class TestRank:
    def test_all_ones(self):
        assert rank(ExactMatrix.from_dense([[1, 1], [1, 1]])) == 1

    def test_zero_matrix(self):
        assert rank(ExactMatrix(3, 4)) == 0

    def test_triangle_log_pattern(self):
        # exponent rows of (x1x2, x2x3, x1x3); the 3x3 determinant is +-2
        m = ExactMatrix.from_dense([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
        assert rank(m) == 3

    def test_rational_entries(self):
        m = ExactMatrix.from_dense([[Fraction(1, 2), 1], [1, 2]])
        assert rank(m) == 1

    def test_rank_transpose_fixed(self):
        m = ExactMatrix.from_dense([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
        assert rank(m) == rank(m.transpose()) == 2


class TestKernel:
    def test_c4_alternating(self):
        kb = kernel_basis(cycle_signless_incidence(4))
        assert kb.dimension == 1
        assert kb.vectors[0] == (1, -1, 1, -1)

    def test_identity_empty(self):
        m = ExactMatrix.from_dense([[1, 0], [0, 1]])
        assert kernel_basis(m).dimension == 0

    def test_odd_cycle_trivial(self):
        assert kernel_basis(cycle_signless_incidence(5)).dimension == 0

    def test_cube_bipartition_signs(self):
        # one-dimensional kernel, signs follow the 2-coloring by bit parity
        kb = kernel_basis(cube_signless_incidence())
        assert kb.dimension == 1
        v = kb.vectors[0]
        parity = [bin(i).count("1") % 2 for i in range(8)]
        base = v[0]
        assert base != 0
        for i in range(8):
            expected = base if parity[i] == parity[0] else -base
            assert v[i] == expected

    def test_kernel_annihilation_and_dimension(self):
        m = ExactMatrix.from_dense([[1, 1, 0, 2], [0, 1, 1, 0]])
        kb = kernel_basis(m)
        assert kb.dimension + rank(m) == m.cols
        for v in kb.vectors:
            assert all(x == 0 for x in m.apply(v))


class TestRankModP:
    def test_drops_mod_2(self):
        m = ExactMatrix.from_dense([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
        assert rank_mod_p(m, 2) == 2

    def test_identity_mod_101(self):
        m = ExactMatrix.from_dense([[int(i == j) for j in range(5)] for i in range(5)])
        assert rank_mod_p(m, 101) == 5

    def test_zero_mod_7(self):
        assert rank_mod_p(ExactMatrix(2, 2), 7) == 0

    def test_not_prime(self):
        with pytest.raises(InvalidModulus):
            rank_mod_p(ExactMatrix(1, 1, {(0, 0): 1}), 6)

    def test_lower_bound_with_retry(self):
        rng = random.Random(7)
        for _ in range(10):
            data = [[rng.randint(-3, 3) for _ in range(5)] for _ in range(4)]
            m = ExactMatrix.from_dense(data)
            exact = rank(m)
            hits = []
            for p in (3, 5, 7, 11, 13, 10007):
                rp = rank_mod_p(m, p)
                assert rp <= exact
                hits.append(rp == exact)
            assert any(hits), "no prime matched the rational rank"


@st.composite
def small_matrices(draw):
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 6))
    data = draw(
        st.lists(
            st.lists(st.integers(-4, 4), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    return ExactMatrix.from_dense(data)


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(small_matrices())
    def test_rank_equals_rank_of_transpose(self, m):
        assert rank(m) == rank(m.transpose())

    @settings(max_examples=60, deadline=None)
    @given(small_matrices())
    def test_kernel_dimension_identity(self, m):
        kb = kernel_basis(m)
        assert kb.dimension + rank(m) == m.cols
        for v in kb.vectors:
            assert all(x == 0 for x in m.apply(v))


def reference_eliminate(rows):
    """Linear-scan pivot search: every column is scanned for every pivot.

    The reference for ``_eliminate``, which must choose the same pivots
    and leave the same rows.
    """
    col_rows = {}
    for r, row in enumerate(rows):
        for j in row:
            col_rows.setdefault(j, set()).add(r)
    pivots = []
    while True:
        best = None
        for j, rs in col_rows.items():
            if not rs:
                continue
            cand = (len(rs), j)
            if best is None or cand < best[0]:
                rws = sorted(rs, key=lambda r: (len(rows[r]), r))
                best = (cand, j, rws[0])
        if best is None:
            break
        _, col, piv = best
        pivrow = rows[piv]
        p = pivrow[col]
        for r in sorted(col_rows[col]):
            if r == piv:
                continue
            row = rows[r]
            v = row[col]
            g = math.gcd(p, v)
            mp, mv = p // g, v // g
            new = {}
            for j, x in row.items():
                y = x * mp - mv * pivrow.get(j, 0)
                if y:
                    new[j] = y
                else:
                    col_rows[j].discard(r)
            for j, x in pivrow.items():
                if j not in row:
                    new[j] = -mv * x
                    col_rows.setdefault(j, set()).add(r)
            rows[r] = _normalize_row(new)
        for j in pivrow:
            col_rows[j].discard(piv)
        del col_rows[col]
        pivots.append((piv, col))
    return pivots, rows


def dense_rank_mod_p(data, p):
    """Row reduction of a dense integer matrix over GF(p)."""
    rows = [[x % p for x in row] for row in data]
    rk = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((r for r in range(rk, len(rows)) if rows[r][c]), None)
        if piv is None:
            continue
        rows[rk], rows[piv] = rows[piv], rows[rk]
        inv = pow(rows[rk][c], -1, p)
        for r in range(rk + 1, len(rows)):
            f = rows[r][c] * inv % p
            rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[rk])]
        rk += 1
    return rk


def reference_pivots_mod_p(rows, p):
    """Pivots of the linear-scan search over GF(p) when each combination
    scales the other row by the pivot entry instead of normalising the
    pivot row to a leading 1."""
    rows = [{j: x % p for j, x in row.items() if x % p} for row in rows]
    live = set(range(len(rows)))
    pivots = []
    while True:
        counts = {}
        for r in live:
            for j in rows[r]:
                counts[j] = counts.get(j, 0) + 1
        if not counts:
            return pivots
        col = min(counts, key=lambda j: (counts[j], j))
        holders = [r for r in live if col in rows[r]]
        piv = min(holders, key=lambda r: (len(rows[r]), r))
        q = rows[piv][col]
        for r in holders:
            if r == piv:
                continue
            v = rows[r][col]
            g = math.gcd(q, v)
            combined = {}
            for j in set(rows[r]) | set(rows[piv]):
                y = (q // g * rows[r].get(j, 0) - v // g * rows[piv].get(j, 0)) % p
                if y:
                    combined[j] = y
            rows[r] = combined
        live.remove(piv)
        pivots.append((piv, col))


@st.composite
def integer_row_lists(draw):
    """Sparse integer rows with empty rows and columns and repeated rows."""
    cols = draw(st.integers(0, 7))
    entry = st.one_of(st.just(0), st.just(0), st.integers(-60, 60))
    distinct = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), max_size=6))
    if not distinct:
        return [], cols
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), max_size=9))
    return [list(distinct[i]) for i in picks], cols


def _row_dicts(data):
    return [{j: v for j, v in enumerate(row) if v} for row in data]


class TestPivotOracle:
    @settings(max_examples=200, deadline=None)
    @given(integer_row_lists())
    @example(([[0, 0, 0], [0, 0, 0]], 3))
    @example(([[2, 4, 0], [2, 4, 0], [0, 0, 0], [1, 2, 0]], 3))
    def test_same_pivots_and_rows_as_linear_scan(self, case):
        data, _ = case
        rows = _row_dicts(data)
        assert _eliminate(copy.deepcopy(rows)) == reference_eliminate(copy.deepcopy(rows))

    @pytest.mark.parametrize("name", fixtures.FIXTURE_NAMES)
    def test_same_pivots_and_rows_on_fixture_maps(self, cx, name):
        for caps in (2, 3):
            frame = ArtinianFrame(cx(name), caps)
            for k in range(frame.socle_degree()):
                rows = _integer_rows(multiplication_matrix(frame, frame.linear_form(), k))
                got = _eliminate(copy.deepcopy(rows))
                assert got == reference_eliminate(copy.deepcopy(rows)), (name, caps, k)

    @settings(max_examples=100, deadline=None)
    @given(integer_row_lists(), st.sampled_from([2, 3, 5, 7, 10007]))
    def test_rank_mod_p_is_lower_bound(self, case, p):
        data, cols = case
        m = ExactMatrix.from_dense(data) if data else ExactMatrix(0, cols)
        assert rank_mod_p(m, p) <= rank(m)

    @settings(max_examples=100, deadline=None)
    @given(integer_row_lists(), st.sampled_from([2, 3, 5, 7, 10007]))
    @example(([[2, 1], [1, 2]], 2), 3)  # the combined row is 3 * (0, 1)
    def test_rank_mod_p_matches_dense_reduction(self, case, p):
        data, cols = case
        m = ExactMatrix.from_dense(data) if data else ExactMatrix(0, cols)
        assert rank_mod_p(m, p) == dense_rank_mod_p(data, p)


class TestModularPivots:
    @settings(max_examples=150, deadline=None)
    @given(integer_row_lists(), st.sampled_from([2, 3, 5, 7, 10007]))
    @example(([[2, 1], [1, 2]], 2), 3)
    def test_same_pivots_as_unscaled_scan(self, case, p):
        data, _ = case
        rows = [{j: v % p for j, v in row.items() if v % p} for row in _row_dicts(data)]
        pivots, _ = _eliminate(copy.deepcopy(rows), p)
        assert pivots == reference_pivots_mod_p(rows, p)

    @pytest.mark.parametrize("name", ["OCT", "C4", "FAN4"])
    def test_same_pivots_on_fixture_maps(self, cx, name):
        frame = ArtinianFrame(cx(name), 3)
        for k in range(frame.socle_degree()):
            rows = _integer_rows(multiplication_matrix(frame, frame.linear_form(), k))
            rows = [{j: v % 101 for j, v in row.items() if v % 101} for row in rows]
            pivots, _ = _eliminate(copy.deepcopy(rows), 101)
            assert pivots == reference_pivots_mod_p(rows, 101), (name, k)


def _sparse(rows, cols, data):
    return ExactMatrix(rows, cols, {(i, j): v for i, row in enumerate(data) for j, v in enumerate(row)})


# zeros, small integers and small fractions (denominators up to 6)
rational_entries = st.one_of(
    st.just(Fraction(0)),
    st.integers(-3, 3).map(Fraction),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
)


def _dense(draw, rows, cols):
    return draw(st.lists(st.lists(rational_entries, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))


@st.composite
def product_pairs(draw):
    """Dense rational factors of an m×n by n×p product; any side may be
    0, and zero entries are common, so zero products occur."""
    m, n, p = (draw(st.integers(0, 5)) for _ in range(3))
    return (m, n, _dense(draw, m, n)), (n, p, _dense(draw, n, p))


@st.composite
def rational_matrices(draw):
    """Zero-heavy rational matrices up to 6×7; either side may be 0."""
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 7))
    return _sparse(rows, cols, _dense(draw, rows, cols))


def fraction_rank(data):
    """Rank by plain Gaussian elimination over Fractions."""
    rows = [list(row) for row in data]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        p = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[rank], rows[p] = rows[p], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] / rows[rank][c]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


class TestOrientation:
    """``rank`` eliminates the rows of a tall matrix's transpose; both
    orientations of the integer lines give the rank."""

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(rational_matrices(), small_matrices()))
    @example(ExactMatrix.from_dense([[Fraction(1, 2)], [Fraction(1, 3)], [1]]))
    def test_rank_of_either_orientation(self, m):
        expected = fraction_rank([[Fraction(x) for x in row] for row in m.to_dense()])
        assert rank(m) == rank(m.transpose()) == expected
        for side in (m, m.transpose()):
            pivots, _ = _eliminate(_integer_rows(side))
            assert len(pivots) == expected


def dense_product(a, b, m, n, p):
    return [[sum((a[i][k] * b[k][j] for k in range(n)), Fraction(0)) for j in range(p)]
            for i in range(m)]


class TestProduct:
    @settings(max_examples=200, deadline=None)
    @given(product_pairs())
    @example(((0, 3, []), (3, 2, [[1, 2], [3, 4], [5, 6]])))
    @example(((2, 0, [[], []]), (0, 3, [])))
    @example(((2, 2, [[0, 0], [0, 0]]), (2, 2, [[1, 0], [0, 1]])))
    @example(((1, 2, [[1, -1]]), (2, 1, [[1], [1]])))  # cancels to zero
    def test_matches_dense_product(self, case):
        (m, n, a), (_, p, b) = case
        got = _sparse(m, n, a) @ _sparse(n, p, b)
        assert got == _sparse(m, p, dense_product(a, b, m, n, p))
        assert (got.rows, got.cols) == (m, p)
        assert all(
            v and (type(v) is int or (type(v) is Fraction and v.denominator > 1))
            for v in got.entries.values()
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            ExactMatrix(2, 3) @ ExactMatrix(2, 3)

    def test_only_matrices(self):
        with pytest.raises(TypeError):
            ExactMatrix(1, 1) @ 2


class TestNormalForm:
    def test_integral_entries_are_ints(self):
        m = ExactMatrix(1, 6, {(0, 0): Fraction(4, 2), (0, 1): "3/1", (0, 2): True,
                               (0, 3): Fraction(1, 3), (0, 4): "0", (0, 5): False})
        assert m.entries == {(0, 0): 2, (0, 1): 3, (0, 2): 1, (0, 3): Fraction(1, 3)}
        assert [type(m.entry(0, j)) for j in range(6)] == [int, int, int, Fraction, int, int]

    def test_from_dense_bool(self):
        m = ExactMatrix.from_dense([[True, 0]])
        assert m.entries == {(0, 0): 1}
        assert type(m.entry(0, 0)) is int
        assert m.to_json_dict()["triplets"] == [[0, 0, "1"]]

    def test_float_refused_even_when_zero(self):
        with pytest.raises(TypeError):
            ExactMatrix.from_dense([[0.0]])
        with pytest.raises(TypeError):
            ExactMatrix.from_triplets(1, 1, [(0, 0, 1.0)])


class TestJson:
    def test_float_is_a_parse_error(self):
        obj = json.loads('{"rows": 1, "cols": 1, "triplets": [[0, 0, 0.1]]}')
        with pytest.raises(ParseError):
            ExactMatrix.from_json_dict(obj)

    def test_true_loads_as_one(self):
        obj = json.loads('{"rows": 1, "cols": 2, "triplets": [[0, 1, true]]}')
        m = ExactMatrix.from_json_dict(obj)
        assert m.entries == {(0, 1): 1}
        assert type(m.entry(0, 1)) is int
        assert m.to_json_dict()["triplets"] == [[0, 1, "1"]]

    def test_triplet_roundtrip(self):
        m = ExactMatrix.from_dense([[Fraction(1, 2), 0], [0, -3]])
        again = ExactMatrix.from_json_dict(m.to_json_dict())
        assert again == m
        assert m.to_json_dict() == {
            "rows": 2,
            "cols": 2,
            "triplets": [[0, 0, "1/2"], [1, 1, "-3"]],
        }


def kernel_reference(matrix):
    """Kernel basis by back-substitution over the rationals.

    The reference for ``kernel_basis``, which back-substitutes in
    integers: rows scaled to integers through ``Fraction`` arithmetic,
    each vector solved with ``Fraction`` entries, then scaled by the lcm
    of its denominators to a primitive vector with a positive lead.
    """
    rows = []
    for row in matrix.row_dicts():
        if row:
            scale = math.lcm(*(Fraction(v).denominator for v in row.values()))
            rows.append({j: int(v * scale) for j, v in row.items()})
    pivots, rows = _eliminate(rows)
    pivot_cols = {c for _, c in pivots}
    vectors = []
    for f in (j for j in range(matrix.cols) if j not in pivot_cols):
        x = {f: Fraction(1)}
        for r, c in reversed(pivots):
            row = rows[r]
            s = Fraction(0)
            for j, v in row.items():
                if j != c and j in x:
                    s += v * x[j]
            if s:
                x[c] = -s / Fraction(row[c])
        vec = [x.get(j, Fraction(0)) for j in range(matrix.cols)]
        scale = math.lcm(*(v.denominator for v in vec))
        ints = [int(v * scale) for v in vec]
        g = math.gcd(*ints)
        ints = [v // g for v in ints]
        if next(v for v in ints if v) < 0:
            ints = [-v for v in ints]
        vectors.append(tuple(Fraction(v) for v in ints))
    return tuple(vectors)


def _same_kernel(matrix):
    got = kernel_basis(matrix).vectors
    assert got == kernel_reference(matrix)
    assert all(type(x) is int for v in got for x in v)
    return got


class TestIntegerKernelOracle:
    @settings(max_examples=300, deadline=None)
    @given(rational_matrices())
    @example(_sparse(2, 3, [[Fraction(1, 2), Fraction(1, 3), 0], [0, Fraction(-2, 5), 3]]))
    @example(_sparse(1, 3, [[-2, 4, 6]]))
    def test_rational_matrices(self, m):
        _same_kernel(m)

    @pytest.mark.parametrize("caps", [2, 3, 4, 5])
    def test_transposed_oct_maps(self, cx, caps):
        frame = ArtinianFrame(cx("OCT"), caps)
        for k in range(frame.socle_degree()):
            _same_kernel(multiplication_matrix(frame, frame.linear_form(), k).transpose())

    @pytest.mark.parametrize("caps", [2, 3])
    def test_transposed_ball10_maps(self, cx, caps):
        # kernel vectors with hundreds of nonzeros, solved in one pass
        frame = ArtinianFrame(cx("BALL10"), caps)
        for k in range(frame.socle_degree()):
            _same_kernel(multiplication_matrix(frame, frame.linear_form(), k).transpose())

    def test_transposed_ball10_caps4_degree9(self, cx):
        frame = ArtinianFrame(cx("BALL10"), 4)
        got = _same_kernel(multiplication_matrix(frame, frame.linear_form(), 8).transpose())
        assert len(got) == 7

    @pytest.mark.parametrize("name", fixtures.DECLARED_SPHERES)
    def test_top_boundary_cycle(self, cx, name):
        c = cx(name)
        (top,) = _same_kernel(boundary_matrix(c, c.dim))
        assert homology(c).top_cycle == top


def residue_rows(matrix, p):
    """Dense residues num * den^-1 mod p of every entry."""
    return [[v.numerator * pow(v.denominator, -1, p) % p for v in row]
            for row in matrix.to_dense()]


class TestRationalModP:
    @settings(max_examples=300, deadline=None)
    @given(rational_matrices(), st.sampled_from([2, 3, 5, 7, 10007]))
    @example(_sparse(1, 2, [[Fraction(1, 2), 1]]), 2)
    @example(_sparse(2, 2, [[Fraction(1, 3), 1], [1, 3]]), 5)
    def test_matches_dense_residue_reduction(self, m, p):
        if any(v.denominator % p == 0 for v in m.entries.values()):
            with pytest.raises(InvalidModulus):
                rank_mod_p(m, p)
        else:
            assert rank_mod_p(m, p) == dense_rank_mod_p(residue_rows(m, p), p)

    def test_vanishing_denominator_named(self):
        m = _sparse(2, 2, [[1, 0], [0, Fraction(5, 6)]])
        with pytest.raises(InvalidModulus, match=r"entry \(1,1\) vanishes mod 3"):
            rank_mod_p(m, 3)
        assert rank_mod_p(m, 5) == 1
        assert rank_mod_p(m, 7) == 2
