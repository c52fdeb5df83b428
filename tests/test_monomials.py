"""Polynomials, contraction, ideals, artinian frames and log matrices."""

import random
import time
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lefkit import linalg
from lefkit.complexes import from_facets
from lefkit.errors import (
    EquigenerationError,
    HomogeneityError,
    MonomialError,
    ParseError,
    RangeError,
)
from lefkit.complexes import _face_compositions
from lefkit.monomials import _over, _times
from lefkit.monomials import (
    ArtinianFrame,
    code,
    code_base,
    coded_monomials,
    exponent_weights,
    IdealPresentation,
    Monomial,
    Polynomial,
    analytic_spread,
    contract,
    differentiate,
    divided_power_rescale,
    face_monomials,
    facet_ideal,
    hilbert_function,
    log_matrix,
    multiplication_equals_hesd_log,
    multiplication_matrix,
    parse_polynomial,
    stanley_reisner_generators,
    standard_basis,
    standard_monomials,
    sum_of_variables,
)
from lefkit.subdivision import hesd, incidence_complex
from lefkit import fixtures


def P(text):
    return parse_polynomial(text)


class TestParsing:
    @pytest.mark.parametrize(
        "text",
        ["x1*x2 - x3^2", "1/2 x1^3", "x1 + x2 + x3", "2 x1 x2 - 1/3", "x1^2*x2^3", "-x1 + 4"],
    )
    def test_roundtrip(self, text):
        p = P(text)
        assert P(str(p)) == p

    def test_coefficients_exact(self):
        p = P("1/2 x1^3")
        assert p.coefficient(Monomial({1: 3})) == Fraction(1, 2)

    def test_implicit_star(self):
        assert P("x1x2") == P("x1*x2") == P("x1 x2")

    def test_signs_collapse(self):
        assert P("- -x1") == P("x1")
        assert P("x1 - x1") == Polynomial.zero()

    def test_zero_literal(self):
        assert P("0").is_zero()

    @pytest.mark.parametrize("bad", ["", "x", "x1^", "1//2", "y3", "x1 +", "3/0"])
    def test_rejects_garbage(self, bad):
        with pytest.raises(ParseError):
            P(bad)

    def test_canonical_order(self):
        assert str(P("x3^2 + x1*x2")) == "x1*x2 + x3^2"
        assert str(P("x2 + x1")) == "x1 + x2"


class TestExactCoefficients:
    @pytest.mark.parametrize("make", [
        lambda c: Polynomial({Monomial({1: 1}): c}),
        Polynomial.constant,
        lambda c: Polynomial.from_monomial(Monomial({1: 1}), c),
    ])
    def test_float_is_refused(self, make):
        with pytest.raises(TypeError):
            make(0.1)
        with pytest.raises(TypeError):
            make(1.0)

    def test_exact_inputs_become_fractions(self):
        p = Polynomial({Monomial({1: 1}): 2, Monomial({2: 1}): "1/3", Monomial({3: 1}): Fraction(3, 4)})
        assert p.terms == {
            Monomial({1: 1}): Fraction(2), Monomial({2: 1}): Fraction(1, 3),
            Monomial({3: 1}): Fraction(3, 4),
        }
        assert all(type(c) is Fraction for c in p.terms.values())


exponent_maps = st.dictionaries(st.integers(1, 6), st.integers(0, 4), max_size=5)


class TestMonomialProduct:
    """``times`` builds the product without the constructor's checks."""

    @settings(max_examples=300, deadline=None)
    @given(exponent_maps, exponent_maps)
    @example({}, {})
    @example({2: 1}, {})
    @example({3: 2, 1: 1}, {1: 3, 5: 1})
    def test_times_equals_constructed_product(self, a, b):
        got = Monomial(a).times(Monomial(b))
        expected = Monomial({v: a.get(v, 0) + b.get(v, 0) for v in set(a) | set(b)})
        assert got.exps == expected.exps
        assert got.degree == expected.degree
        assert hash(got) == hash(expected)
        assert got == expected


def exps_of(exps: dict) -> tuple:
    return tuple(sorted((v, e) for v, e in exps.items() if e))


class TestProductWalk:
    """``_times`` merges two exponent tuples into their product's."""

    @settings(max_examples=500, deadline=None)
    @given(exponent_maps, exponent_maps)
    @example({}, {})
    @example({1: 2}, {1: 3})
    @example({2: 1}, {1: 1, 3: 1})
    @example({1: 1, 5: 2}, {3: 4})
    def test_times_against_a_dict_sum(self, a, b):
        expected = exps_of({v: a.get(v, 0) + b.get(v, 0) for v in set(a) | set(b)})
        x, y = exps_of(a), exps_of(b)
        assert _times(x, y) == expected
        assert _times(y, x) == expected
        assert _over(_times(x, y), y) == x


def divides_reference(a, b):
    """Whether a divides b, read through a dict of b's exponents."""
    o = dict(b.exps)
    return all(o.get(v, 0) >= e for v, e in a.exps)


def divide_reference(a, b):
    """a / b through the validating constructor; b must divide a."""
    d = dict(a.exps)
    for v, e in b.exps:
        if d.get(v, 0) < e:
            raise ValueError("not divisible")
        d[v] -= e
    return Monomial(d)


class TestMonomialQuotient:
    """``over`` walks the two sorted exponent tuples once."""

    @settings(max_examples=400, deadline=None)
    @given(exponent_maps, exponent_maps)
    @example({}, {})
    @example({2: 1}, {})
    @example({}, {2: 1})
    @example({1: 2, 3: 1}, {1: 2, 3: 1})  # equal
    @example({1: 2}, {3: 1})  # disjoint
    @example({1: 1, 2: 2}, {1: 2})  # an exponent too small
    @example({1: 3, 2: 1, 4: 2}, {2: 1, 4: 1})
    @example({1: 1, 5: 2}, {3: 1})  # a variable of other between two of self
    @example({1: 1}, {1: 1, 2: 1})  # a variable of other past the end of self
    def test_over_matches_dict_reference(self, a, b):
        ma, mb = Monomial(a), Monomial(b)
        got = ma.over(mb)
        assert (got is not None) == divides_reference(mb, ma) == mb.divides(ma)
        if got is not None:
            want = divide_reference(ma, mb)
            assert got.exps == want.exps
            assert got.degree == want.degree
            assert hash(got) == hash(want)
            assert got == want


def contract_reference(g, F):
    """Contraction pair by pair in ``Fraction`` arithmetic."""
    out = {}
    for ma, ca in g.terms.items():
        for mb, cb in F.terms.items():
            if divides_reference(ma, mb):
                m = divide_reference(mb, ma)
                out[m] = out.get(m, Fraction(0)) + ca * cb
    return Polynomial(out)


def differentiate_reference(g, F):
    """Differentiation pair by pair, each pair scaled by its falling
    factorial, in ``Fraction`` arithmetic."""
    out = {}
    for ma, ca in g.terms.items():
        for mb, cb in F.terms.items():
            if divides_reference(ma, mb):
                scale = 1
                for v, e in ma.exps:
                    b = mb.exponent(v)
                    for t in range(e):
                        scale *= b - t
                m = divide_reference(mb, ma)
                out[m] = out.get(m, Fraction(0)) + ca * cb * scale
    return Polynomial(out)


# few variables and exponents make sums cancel; the monomial 1 is drawn too
action_polynomials = st.dictionaries(
    st.dictionaries(st.integers(1, 3), st.integers(0, 3), max_size=3).map(Monomial),
    st.sampled_from([Fraction(n, d) for n in (-3, -2, -1, 1, 2, 3) for d in (1, 2, 3, 4)]),
    max_size=6,
).map(Polynomial)


class TestActions:
    def test_contract_basics(self):
        assert contract(P("x1"), P("x1*x2")) == P("x2")
        assert contract(P("x1*x2"), P("x1")).is_zero()

    def test_contract_cancellation(self):
        assert contract(P("x1+x2"), P("x1*x3 - x2*x3")).is_zero()

    def test_differentiate_basics(self):
        assert differentiate(P("x1"), P("x1^2")) == P("2 x1")
        assert differentiate(P("x1"), P("x2")).is_zero()

    def test_differentiate_zero_sum_product(self):
        F = P("x1-x2") * P("x3-x4") * P("x1+x2-x3-x4")
        L = sum_of_variables([1, 2, 3, 4])
        assert differentiate(L, F).is_zero()

    def test_divided_power_rescale(self):
        g = divided_power_rescale(P("x1^3*x2 + 2 x3^2"))
        assert g.coefficient(Monomial({1: 3, 2: 1})) == Fraction(1, 6)
        assert g.coefficient(Monomial({3: 2})) == Fraction(1)

    @settings(max_examples=400, deadline=None)
    @given(action_polynomials, action_polynomials)
    @example(P("1/2 x1 + 1/3 x2"), P("1/3 x1*x3 - 1/2 x2*x3"))  # cancels to zero
    @example(P("1/2 x1 - 1/2 x2"), P("1/3 x1^2*x2 - 1/3 x1*x2^2"))  # cancels to zero
    @example(P("1/2 + x1"), P("1/3 x1^2 + 3/4 x2"))  # a constant term in g
    @example(P("1/2 x1^2"), P("1/3 x1^3 + 2/3 x1^4"))  # both denominators count
    @example(P("x1^2*x2"), P("x1*x2^3"))  # an exponent of g too large
    def test_actions_match_pairwise_references(self, g, F):
        got = contract(g, F)
        assert got == contract_reference(g, F)
        assert all(type(c) is Fraction and c for c in got.terms.values())
        got = differentiate(g, F)
        assert got == differentiate_reference(g, F)
        assert all(type(c) is Fraction and c for c in got.terms.values())

    @settings(max_examples=200, deadline=None)
    @given(action_polynomials, action_polynomials)
    @example(P("x1 + x2"), P("x1^2*x3 + x2*x3"))  # two terms sum onto one monomial
    def test_output_monomials_are_the_constructors(self, g, F):
        # outputs are accumulated by exponent tuple and built once per term
        for got in (contract(g, F), differentiate(g, F)):
            for m in got.terms:
                want = Monomial(m.exps)
                assert (m.exps, m.degree, hash(m)) == (want.exps, want.degree, hash(want))

    def test_falling_factorial(self):
        assert differentiate(P("x1^2"), P("1/5 x1^4*x2")) == P("12/5 x1^2*x2")
        assert differentiate(P("x1*x2"), P("x1^3*x2^2")) == P("6 x1^2*x2")

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_contraction_is_multiplicative(self, data):
        def poly(draw):
            n_terms = draw(st.integers(1, 3))
            terms = {}
            for _ in range(n_terms):
                exps = draw(
                    st.dictionaries(st.integers(1, 3), st.integers(1, 2), max_size=2)
                )
                coeff = draw(st.integers(-3, 3))
                terms[Monomial(exps)] = terms.get(Monomial(exps), 0) + coeff
            return Polynomial({m: Fraction(c) for m, c in terms.items() if c})

        g = poly(data.draw)
        h = poly(data.draw)
        F = poly(data.draw)
        assert contract(g * h, F) == contract(g, contract(h, F))


class TestIdeals:
    def test_oct_stanley_reisner(self, cx):
        gens = stanley_reisner_generators(cx("OCT")).generators
        assert [str(g) for g in gens] == ["x1*x2", "x3*x4", "x5*x6"]

    def test_full_simplex_no_generators(self):
        assert stanley_reisner_generators(from_facets([{1, 2, 3}])).generators == ()

    def test_c3_cubic(self, cx):
        gens = stanley_reisner_generators(cx("C3")).generators
        assert [str(g) for g in gens] == ["x1*x2*x3"]

    def test_ball10_generators(self, cx):
        gens = stanley_reisner_generators(cx("BALL10")).generators
        expected = {
            "x1*x4", "x1*x5", "x2*x4", "x2*x5", "x3*x4", "x3*x5", "x4*x5",
            "x1*x6", "x2*x7", "x3*x8", "x4*x9", "x5*x10",
        }
        assert {str(g) for g in gens} == expected

    def test_fan4_facet_ideal(self, cx):
        gens = facet_ideal(cx("FAN4")).generators
        assert {str(g) for g in gens} == {"x1*x2*x4", "x2*x4*x5", "x2*x3*x5", "x4*x5*x6"}

    def test_single_vertex(self):
        assert [str(g) for g in facet_ideal(from_facets([{1}])).generators] == ["x1"]

    def test_edge(self, cx):
        assert [str(g) for g in facet_ideal(cx("EDGE")).generators] == ["x1*x2"]


def reference_stanley_reisner(cx):
    """``stanley_reisner_generators`` trying every subset size up to the
    vertex count."""
    all_faces = set(cx.all_faces())
    minimal = []
    for size in range(1, len(cx.vertices) + 1):
        for combo in combinations(cx.vertices, size):
            s = frozenset(combo)
            if s in all_faces:
                continue
            if any(frozenset(sub) not in all_faces for sub in combinations(combo, size - 1)):
                continue
            minimal.append(s)
    return [Polynomial.from_monomial(Monomial({v: 1 for v in s}))
            for s in sorted(minimal, key=sorted)]


@st.composite
def small_complexes(draw):
    """Non-pure complexes over at most 8 vertices, isolated points and
    facets up to a tetrahedron included."""
    n = draw(st.integers(1, 8))
    facet = st.frozensets(st.integers(1, n), min_size=1, max_size=4)
    return from_facets(draw(st.lists(facet, min_size=1, max_size=6)))


class TestStanleyReisnerSizes:
    """Minimal non-faces have at most dim + 2 vertices."""

    @settings(max_examples=150, deadline=None)
    @given(small_complexes())
    @example(from_facets([{1}, {2}, {3}]))
    @example(from_facets([{1, 2}, {2, 3}, {1, 3}]))
    def test_matches_all_sizes(self, complex_):
        gens = stanley_reisner_generators(complex_).generators
        assert list(gens) == reference_stanley_reisner(complex_)

    @pytest.mark.parametrize("name", fixtures.FIXTURE_NAMES)
    def test_fixtures_match_all_sizes(self, cx, name):
        gens = stanley_reisner_generators(cx(name)).generators
        assert list(gens) == reference_stanley_reisner(cx(name))

    def test_thirty_cycle_is_fast(self):
        cycle = from_facets([{i, i % 30 + 1} for i in range(1, 31)])
        start = time.perf_counter()
        gens = stanley_reisner_generators(cycle).generators
        assert time.perf_counter() - start < 1.0
        # C(30, 2) pairs, less the 30 edges
        assert len(gens) == 435 - 30


class TestStandardBasis:
    def test_oct_caps2_degree2_is_edges(self, cx):
        basis = standard_basis(ArtinianFrame(cx("OCT"), 2), 2)
        assert len(basis) == 12
        assert all(m.degree == 2 and len(m.support) == 2 for m in basis)

    def test_edge_caps3_degree2(self, cx):
        basis = standard_basis(ArtinianFrame(cx("EDGE"), 3), 2)
        assert {str(m) for m in basis} == {"x1^2", "x1*x2", "x2^2"}

    def test_vanishes_above_socle(self, cx):
        frame = ArtinianFrame(cx("OCT"), 3)
        socle = frame.socle_degree()
        assert socle == 6
        assert hilbert_function(frame, socle) > 0
        assert hilbert_function(frame, socle + 1) == 0

    @pytest.mark.parametrize("name", ["OCT", "CROSS4", "FAN4", "BALL10"])
    @pytest.mark.parametrize("a", [2, 3])
    def test_socle_degree_formula(self, cx, name, a):
        complex_ = cx(name)
        frame = ArtinianFrame(complex_, a)
        socle = (complex_.dim + 1) * (a - 1)
        assert hilbert_function(frame, socle) > 0
        for k in range(socle + 1, socle + 3):
            assert hilbert_function(frame, k) == 0

    def test_caps_below_two_rejected(self, cx):
        with pytest.raises(RangeError):
            ArtinianFrame(cx("EDGE"), 1)

    @pytest.mark.parametrize("caps", [
        2.5, 3.0, "3", True,
        [2.5] * 4, [3, 3, 3.0, 3], ["3"] * 4, [3, True, 3, 3],
        {1: 3.0, 2: 3, 3: 3, 4: 3}, {1: "3", 2: 3, 3: 3, 4: 3}, {1: 3, 2: 3, 3: True, 4: 3},
    ])
    def test_non_integer_caps_rejected(self, cx, caps):
        with pytest.raises(RangeError, match="not an integer"):
            ArtinianFrame(cx("C4"), caps)

    def test_positional_caps_length_must_match(self, cx):
        oct_ = cx("OCT")
        with pytest.raises(RangeError):
            ArtinianFrame(oct_, [2] * 6 + [9, 9])
        with pytest.raises(RangeError):
            ArtinianFrame(oct_, [2] * 5)
        assert ArtinianFrame(oct_, [2] * 6) == ArtinianFrame(oct_, 2)

    def test_vector_caps(self, cx):
        frame = ArtinianFrame(cx("EDGE"), {1: 2, 2: 3})
        values = [hilbert_function(frame, k) for k in range(5)]
        assert values == [1, 2, 2, 1, 0]

    def test_edge_caps3_hilbert_row(self, cx):
        frame = ArtinianFrame(cx("EDGE"), 3)
        assert [hilbert_function(frame, k) for k in range(5)] == [1, 2, 3, 2, 1]

    @staticmethod
    def _check_graph_closed_form(g, a):
        v = len(g.vertices)
        e = sum(1 for f in g.facets if len(f) == 2)
        frame = ArtinianFrame(g, a)
        for t in range(2 * a + 1):
            if t == 0:
                expected = 1
            elif t < a:
                expected = v + (t - 1) * e
            elif t <= 2 * a - 2:
                expected = e * (2 * a - t - 1)
            else:
                expected = 0
            assert hilbert_function(frame, t) == expected, (g.facets, a, t)

    @pytest.mark.parametrize("name", fixtures.GRAPH_FIXTURES)
    @pytest.mark.parametrize("a", [2, 3, 4, 5])
    def test_graph_closed_form_fixtures(self, cx, name, a):
        self._check_graph_closed_form(cx(name), a)

    def test_graph_closed_form_exhaustive(self):
        # all graphs up to isomorphism with <= 6 vertices, <= 8 edges and
        # no isolated vertex (those drop out of a facet presentation)
        import networkx as nx

        graphs = [
            g for g in nx.graph_atlas_g()
            if 1 <= g.number_of_edges() <= 8
            and g.number_of_nodes() <= 6
            and min(dict(g.degree()).values()) >= 1
        ]
        assert len(graphs) == 101
        for g in graphs:
            complex_ = from_facets([set(e) for e in g.edges()])
            for a in (2, 3, 4, 5):
                self._check_graph_closed_form(complex_, a)


class TestMultiplicationMatrix:
    def test_constant_gives_identity(self, cx):
        frame = ArtinianFrame(cx("C4"), 2)
        m = multiplication_matrix(frame, Polynomial.constant(1), 1)
        assert m.rows == m.cols == 4
        assert all(m.entry(i, i) == 1 for i in range(4))
        assert m.nnz() == 4

    def test_edge_caps3_top(self, cx):
        frame = ArtinianFrame(cx("EDGE"), 3)
        m = multiplication_matrix(frame, frame.linear_form(), 3)
        assert (m.rows, m.cols) == (1, 2)
        assert m.to_dense() == [[1, 1]]

    def test_oct_caps2_is_ridge_facet_incidence(self, cx):
        frame = ArtinianFrame(cx("OCT"), 2)
        m = multiplication_matrix(frame, frame.linear_form(), 2)
        assert (m.rows, m.cols) == (8, 12)
        row_sums = [0] * 8
        col_sums = [0] * 12
        for (i, j), v in m.entries.items():
            assert v == 1
            row_sums[i] += 1
            col_sums[j] += 1
        assert row_sums == [3] * 8  # cube graph is 3-regular
        assert col_sums == [2] * 12
        assert linalg.rank(m) == 7  # bipartite: rank is one below full

    def test_requires_homogeneous(self, cx):
        frame = ArtinianFrame(cx("EDGE"), 3)
        with pytest.raises(HomogeneityError):
            multiplication_matrix(frame, P("x1 + x1^2"), 1)

    @pytest.mark.parametrize("name,a", [("EDGE", 3), ("C4", 2), ("C3", 3)])
    def test_transpose_represents_contraction(self, cx, name, a):
        # independent oracle: build the contraction matrix on dual bases
        g = cx(name)
        frame = ArtinianFrame(g, a)
        L = frame.linear_form()
        for k in range(frame.socle_degree()):
            mat = multiplication_matrix(frame, L, k)
            lo = standard_basis(frame, k)
            hi = standard_basis(frame, k + 1)
            lo_index = {m: i for i, m in enumerate(lo)}
            trans = mat.transpose()
            for j, b in enumerate(hi):
                image = contract(L, Polynomial.from_monomial(b))
                vec = [Fraction(0)] * len(lo)
                for m, c in image.terms.items():
                    if m in lo_index:
                        vec[lo_index[m]] += c
                for i in range(len(lo)):
                    assert trans.entry(i, j) == vec[i]

    @pytest.mark.parametrize("a", [3, 4])
    def test_graph_matrix_decomposes_into_paths(self, cx, a):
        # at degree a the matrix is the incidence matrix of f_1 disjoint
        # paths with a-1 vertices each
        g = cx("C4")
        frame = ArtinianFrame(g, a)
        m = multiplication_matrix(frame, frame.linear_form(), a)
        e = len(g.facets)
        assert m.cols == e * (a - 1)
        assert m.rows == e * (a - 2)
        adj = {j: set() for j in range(m.cols)}
        for i in range(m.rows):
            touched = [j for j in range(m.cols) if m.entry(i, j) != 0]
            assert len(touched) == 2
            a_, b_ = touched
            adj[a_].add(b_)
            adj[b_].add(a_)
        seen = set()
        components = 0
        for start in range(m.cols):
            if start in seen:
                continue
            components += 1
            stack = [start]
            size = 0
            while stack:
                u = stack.pop()
                if u in seen:
                    continue
                seen.add(u)
                size += 1
                assert len(adj[u]) <= 2  # path, not a branching tree
                stack.extend(adj[u] - seen)
            assert size == a - 1
        assert components == e
        assert linalg.rank(m) == m.rows  # surjective


def multiplication_matrix_reference(frame, f, k):
    """×f as the tuple-product loop built it: each product m·t of a
    standard monomial and a term of f (``_times``) looked up among the
    standard monomials of degree k + deg f, the entries read by the
    validating constructor."""
    cols = standard_monomials(frame.complex, k, frame.caps)
    rows = standard_monomials(frame.complex, k + f.degree(), frame.caps)
    index = {m: i for i, m in enumerate(rows)}
    entries = {}
    for j, m in enumerate(cols):
        for t, c in f.terms.items():
            i = index.get(_times(m, t.exps))
            if i is not None:
                entries[i, j] = c
    return linalg.ExactMatrix(len(rows), len(cols), entries)


def sparse_renaming(complex_, rng):
    """A renaming of the complex's vertices to ids at and above 2^20, in
    a random order."""
    vs = complex_.vertices
    return dict(zip(vs, rng.sample(range(1 << 20, 1 << 40), len(vs))))


def frame_forms(frame, vs):
    """×L, a constant, a rational linear form and a rational quadratic
    with squares, over the vertices vs of the frame."""
    return [
        frame.linear_form(),
        Polynomial.constant(3),
        Polynomial({Monomial({vs[0]: 1}): Fraction(1, 2), Monomial({vs[-1]: 1}): -3}),
        Polynomial({Monomial({vs[0]: 1, vs[1]: 1}): Fraction(2, 3), Monomial({vs[1]: 2}): 4,
                    Monomial({vs[-1]: 2}): -1}),
    ]


class TestMultiplicationMatrixOracle:
    """``multiplication_matrix`` on coded pieces against the tuple-product
    loop, entry for entry, in insertion order and in shape."""

    @staticmethod
    def check(frame, forms):
        for f in forms:
            for k in range(frame.socle_degree() + 1):
                got, want = multiplication_matrix(frame, f, k), multiplication_matrix_reference(frame, f, k)
                assert got == want, (frame, f, k)
                assert list(got.entries.items()) == list(want.entries.items()), (frame, f, k)

    @pytest.mark.parametrize("name", fixtures.FIXTURE_NAMES)
    @pytest.mark.parametrize("caps", [2, 3])
    def test_fixtures(self, cx, name, caps):
        frame = ArtinianFrame(cx(name), caps)
        self.check(frame, frame_forms(frame, frame.complex.vertices))

    @pytest.mark.parametrize("name", fixtures.FIXTURE_NAMES)
    def test_sparse_ids_and_mixed_caps(self, cx, name):
        rng = random.Random(name)
        complex_ = cx(name)
        rename = sparse_renaming(complex_, rng)
        moved = from_facets([{rename[v] for v in f} for f in complex_.facets])
        frame = ArtinianFrame(moved, {v: rng.randint(2, 4) for v in moved.vertices})
        self.check(frame, frame_forms(frame, [rename[v] for v in complex_.vertices]))


def digits(n, vertices, base):
    """The exponent tuple whose code is n: n's base-B digits over the
    vertices, ascending (the inverse of ``code``)."""
    exps = []
    for v in vertices:
        n, e = divmod(n, base)
        if e:
            exps.append((v, e))
    assert n == 0
    return tuple(exps)


# exponent maps over a few ids, some of them at and above 2^20
sparse_exponent_maps = st.dictionaries(
    st.sampled_from([1, 2, 5, 9, 1 << 20, (1 << 20) + 3, 1 << 40]), st.integers(0, 5), max_size=4)
SPARSE_POINTS = from_facets([{1, 2, 5, 9, 1 << 20}, {(1 << 20) + 3, 1 << 40}])
SPARSE_SIMPLEX = from_facets([{1, 2, 5, 9, 1 << 20, (1 << 20) + 3, 1 << 40}])


class TestCodes:
    """Codes add like products and subtract like quotients."""

    @settings(max_examples=400, deadline=None)
    @given(sparse_exponent_maps, sparse_exponent_maps)
    @example({}, {})
    @example({1: 5}, {1: 5})  # the largest exponent is a power of two
    @example({1 << 40: 3}, {1 << 40: 4, 1: 1})
    def test_sums_agree_with_times(self, a, b):
        x, y = exps_of(a), exps_of(b)
        product_ = _times(x, y)
        base = code_base(max((e for _, e in product_), default=0))
        weights = exponent_weights(SPARSE_POINTS, base)
        total = code(x, weights) + code(y, weights)
        assert total == code(product_, weights)
        assert digits(total, SPARSE_POINTS.vertices, base) == product_

    @settings(max_examples=400, deadline=None)
    @given(sparse_exponent_maps, sparse_exponent_maps)
    @example({1: 2}, {1: 2})
    @example({1: 1, 2: 2}, {1: 2})  # an exponent too small: the digit borrows
    @example({2: 4}, {1: 1, 2: 3})
    @example({1 << 40: 1}, {(1 << 20) + 3: 1})
    def test_differences_agree_with_over(self, a, b):
        """``None`` from ``_over`` exactly when the difference is no code of
        the lower piece: every monomial of degree deg a - deg b, since the
        simplex has every monomial as a face monomial."""
        x, y = exps_of(a), exps_of(b)
        d = sum(a.values()) - sum(b.values())
        assume(d >= 0)
        base = code_base(max((e for _, e in x + y), default=0))
        weights = exponent_weights(SPARSE_SIMPLEX, base)
        lower = coded_monomials(SPARSE_SIMPLEX, d, base)
        quotient = _over(x, y)
        difference = code(x, weights) - code(y, weights)
        assert (difference in lower) == (quotient is not None)
        if quotient is not None:
            assert difference == code(quotient, weights)
            assert standard_monomials(SPARSE_SIMPLEX, d)[lower[difference]] == quotient

    @pytest.mark.parametrize("name", fixtures.FIXTURE_NAMES)
    def test_views_follow_the_standard_monomials(self, cx, name):
        frame = ArtinianFrame(cx(name), {v: 2 + v % 3 for v in cx(name).vertices})
        for k in range(frame.socle_degree() + 2):
            for base in (code_base(k), code_base(4)):
                monos = standard_monomials(frame.complex, k, frame.caps)
                view = coded_monomials(frame.complex, k, base, frame.caps)
                assert list(view.values()) == list(range(len(monos)))
                assert [digits(q, frame.complex.vertices, base) for q in view] == list(monos)

    def test_base_is_above_the_top_exponent(self):
        for top in range(70):
            base = code_base(top)
            assert base > max(top, 1) and base & (base - 1) == 0
            assert base <= 2 * max(top, 1)


class TestLogMatrix:
    def test_two_edges(self):
        ideal = IdealPresentation.make((P("x1*x2"), P("x2*x3")))
        log = log_matrix(ideal)
        assert log.matrix.to_dense() == [[1, 1, 0], [0, 1, 1]]

    def test_power(self):
        log = log_matrix(IdealPresentation.make((P("x1^3"),)))
        assert log.matrix.to_dense() == [[3]]

    def test_fan4_facet_log(self, cx):
        log = log_matrix(facet_ideal(cx("FAN4")))
        assert (log.matrix.rows, log.matrix.cols) == (4, 6)
        for i in range(4):
            row = [log.matrix.entry(i, j) for j in range(6)]
            assert sum(row) == 3 and set(row) <= {0, 1}

    def test_row_sums_equal_degrees(self, cx):
        for name in ("OCT", "FAN4", "BALL10"):
            ideal = facet_ideal(cx(name))
            log = log_matrix(ideal)
            for i, m in enumerate(log.row_labels):
                total = sum(log.matrix.entry(i, j) for j in range(log.matrix.cols))
                assert total == m.degree

    def test_non_monomial_rejected(self):
        with pytest.raises(MonomialError):
            log_matrix(IdealPresentation.make((P("x1 + x2"),)))


class TestAnalyticSpread:
    def test_triangle(self):
        assert analytic_spread(IdealPresentation.make((P("x1*x2"), P("x2*x3"), P("x1*x3")))) == 3

    def test_principal(self):
        assert analytic_spread(IdealPresentation.make((P("x1*x2"),))) == 1

    def test_mixed_degrees_rejected(self):
        with pytest.raises(EquigenerationError):
            analytic_spread(IdealPresentation.make((P("x1"), P("x2*x3"))))

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_hesd_of_fan4_incidence_is_maximal(self, cx, r):
        inc = incidence_complex(cx("FAN4"), 2)
        sub = hesd(inc, r)
        ideal = facet_ideal(sub)
        assert analytic_spread(ideal) == len(ideal.generators)


class TestHesdLogCorrespondence:
    def test_fan4_a3(self, cx):
        cmp_ = multiplication_equals_hesd_log(cx("FAN4"), 3)
        assert cmp_.equal
        assert cmp_.multiplication.rows == len(cmp_.row_map)
        assert cmp_.hesd_log.matrix.rows == cmp_.multiplication.rows

    def test_oct_a2(self, cx):
        assert multiplication_equals_hesd_log(cx("OCT"), 2).equal

    @pytest.mark.parametrize("name", fixtures.GRAPH_FIXTURES)
    @pytest.mark.parametrize("a", [2, 3, 4])
    def test_graphs(self, cx, name, a):
        assert multiplication_equals_hesd_log(cx(name), a).equal

    def test_graph_a2_is_vertex_edge_incidence(self, cx):
        g = cx("PATH3")
        cmp_ = multiplication_equals_hesd_log(g, 2)
        assert cmp_.equal
        m = cmp_.multiplication
        assert (m.rows, m.cols) == (len(g.facets), len(g.vertices))


def reference_graded_key(m, var_order):
    """Degree, then the dense exponent vector over var_order: the order
    keys that took a variable list."""
    exps = dict(m.exps)
    return (m.degree, tuple(exps.get(v, 0) for v in var_order))


monomials_on_six = st.dictionaries(st.integers(1, 6), st.integers(1, 4), max_size=6).map(Monomial)


class TestMonomialOrder:
    @settings(max_examples=500, deadline=None)
    @given(monomials_on_six, monomials_on_six)
    def test_order_key_matches_dense_exponent_vectors(self, a, b):
        ref_a, ref_b = (reference_graded_key(m, range(1, 7)) for m in (a, b))
        assert (a.order_key() < b.order_key()) == (ref_a < ref_b)
        assert (a.order_key() == b.order_key()) == (a == b)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(monomials_on_six, max_size=8), st.lists(st.integers(-3, 3), min_size=8, max_size=8))
    def test_sorted_terms_follow_the_reference_order(self, monos, coeffs):
        poly = Polynomial(dict(zip(monos, coeffs)))
        order = poly.variables()
        expected = sorted(poly.terms, key=lambda m: reference_graded_key(m, order), reverse=True)
        assert [m for m, _ in poly.sorted_terms()] == expected

    @pytest.mark.parametrize("name", fixtures.FIXTURE_NAMES)
    def test_face_monomials_follow_the_reference_order(self, cx, name):
        complex_ = cx(name)
        for k in range(4):
            caps = {v: 3 for v in complex_.vertices}
            monos = [Monomial(m) for m in face_monomials(complex_, k, caps)]
            assert monos == sorted(monos, key=lambda m: reference_graded_key(m, complex_.vertices))


def reference_face_monomials(cx, k, caps):
    """The enumeration as ``Monomial`` objects sorted by ``order_key``."""
    out = [Monomial._trusted(tuple(zip(vs, combo)), k)
           for vs, combo in _face_compositions(cx, k, caps)]
    out.sort(key=Monomial.order_key)
    return out


def brute_force_face_monomials(cx, k, caps):
    """Every exponent tuple of degree k on a face, exponents below caps,
    by trying every exponent vector on every face."""
    caps = caps or {}
    out = set()
    for face in {frozenset()} | set(cx.all_faces()):
        vs = sorted(face)
        ranges = [range(1, min(k, caps.get(v, k + 1) - 1) + 1) for v in vs]
        for combo in product(*ranges):
            if sum(combo) == k:
                out.add(tuple(zip(vs, combo)))
    return out


@st.composite
def capped_enumerations(draw):
    """A small complex with its vertex ids spread out, a degree, and caps:
    None, or on some vertices from 2 to past the degree."""
    base = draw(small_complexes())
    ids = draw(st.lists(st.integers(1, 60), min_size=len(base.vertices),
                        max_size=len(base.vertices), unique=True))
    name = dict(zip(base.vertices, ids))
    complex_ = from_facets([{name[v] for v in f} for f in base.facets])
    k = draw(st.integers(0, 4))
    caps = draw(st.none() | st.dictionaries(st.sampled_from(complex_.vertices), st.integers(2, k + 2)))
    return complex_, k, caps


class TestTupleBases:
    """The exponent-tuple bases against the ``Monomial`` enumeration they
    replace."""

    @settings(max_examples=200, deadline=None)
    @given(capped_enumerations())
    @example((from_facets([{1, 2, 3}, {3, 4}, {5}]), 3, None))
    @example((from_facets([{7, 2}, {40}, {2, 9, 11}]), 2, {2: 5, 40: 2}))
    def test_order_and_contents(self, case):
        complex_, k, caps = case
        got = face_monomials(complex_, k, caps)
        assert got == tuple(m.exps for m in reference_face_monomials(complex_, k, caps))
        assert set(got) == brute_force_face_monomials(complex_, k, caps)
        assert standard_monomials(complex_, k, tuple(sorted((caps or {}).items()))) == got


class TestStandardMonomials:
    def test_caps_that_cannot_bite_share_the_uncapped_entry(self, cx):
        oct_ = cx("OCT")
        assert standard_monomials(oct_, 2, ((1, 5), (2, 3))) is standard_monomials(oct_, 2)
        assert standard_monomials(oct_, 2, ((1, 2),)) is not standard_monomials(oct_, 2)
        assert standard_monomials(oct_, 2, ArtinianFrame(oct_, 3).caps) is standard_monomials(oct_, 2)
        assert standard_monomials(oct_, -1) == ()

    def test_filters_drop_multiples(self, cx):
        oct_ = cx("OCT")
        x1x3 = Monomial({1: 1, 3: 1})
        kept = standard_monomials(oct_, 3, (), [x1x3.exps])
        assert kept == tuple(
            m for m in standard_monomials(oct_, 3) if not x1x3.divides(Monomial(m)))
        assert len(kept) < len(standard_monomials(oct_, 3))

    @pytest.mark.parametrize("name", fixtures.FIXTURE_NAMES)
    def test_frame_bases_are_the_capped_face_monomials(self, cx, name):
        frame = ArtinianFrame(cx(name), 3)
        for k in range(frame.socle_degree() + 2):
            assert tuple(m.exps for m in standard_basis(frame, k)) == face_monomials(
                frame.complex, k, frame.cap_map)
