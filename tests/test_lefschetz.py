"""Lefschetz decisions, inverse systems and the unexpectedness verdict."""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement
from itertools import product

import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from lefkit import lefschetz, linalg
from lefkit.complexes import (
    Coloring,
    SimplicialComplex,
    balanced_coloring,
    fh_profile,
    from_facets,
    is_cohen_macaulay,
)
from lefkit.errors import (
    ArityError,
    ColoringError,
    HomogeneityError,
    HypothesisError,
    InputError,
    LefkitError,
    NotArtinian,
    RangeError,
)
from lefkit.lefschetz import (
    SlpReport,
    SopCandidate,
    colored_dual_generator,
    colored_sop,
    contraction_bound_check,
    divergence_bound_check,
    graph_wlp_classifier,
    ideal_membership,
    inverse_system_piece,
    is_sop,
    kernel_transpose_basis,
    quotient_hilbert,
    slp_check,
    universal_sop,
    verify_unexpected,
    wlp_check,
)
from lefkit.lefschetz import IsotypicMaps, twin_pairs
from lefkit.monomials import _standard_monomials, _times, standard_monomials
from lefkit.monomials import (
    ArtinianFrame,
    Monomial,
    Polynomial,
    contract,
    divided_power_rescale,
    hilbert_function,
    hilbert_series,
    multiplication_matrix,
    parse_polynomial,
    standard_basis,
    stanley_reisner_generators,
    sum_of_variables,
)
from lefkit import fixtures


def P(text):
    return parse_polynomial(text)


def convolve(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def span_contains(polys, target, basis_monomials):
    """Rank test: does target lie in the span of polys over the basis?"""
    col = {m: j for j, m in enumerate(basis_monomials)}
    rows = []
    for p in polys:
        rows.append({col[m]: c for m, c in p.terms.items()})
    entries = {(i, j): c for i, vec in enumerate(rows) for j, c in vec.items()}
    base = linalg.ExactMatrix(len(rows), len(basis_monomials), entries)
    tvec = {col[m]: c for m, c in target.terms.items()}
    entries2 = dict(entries)
    for j, c in tvec.items():
        entries2[(len(rows), j)] = c
    ext = linalg.ExactMatrix(len(rows) + 1, len(basis_monomials), entries2)
    return linalg.rank(ext) == linalg.rank(base)


def oct_colored(cx):
    complex_ = cx("OCT")
    return complex_, colored_sop(complex_, balanced_coloring(complex_))


class TestQuotientHilbert:
    def test_oct_colored_is_h_vector(self, cx):
        complex_, cand = oct_colored(cx)
        values = [quotient_hilbert(complex_, cand.theta, k) for k in range(5)]
        assert values == [1, 3, 3, 1, 0]

    def test_oct_universal_product_formula(self, cx):
        complex_ = cx("OCT")
        cand = universal_sop(6, 3)
        got = [quotient_hilbert(complex_, cand.theta, k) for k in range(8)]
        # independent oracle: h(x) * (1) * (1+x) * (1+x+x^2)
        expected = convolve(convolve([1, 3, 3, 1], [1, 1]), [1, 1, 1])
        assert got == expected + [0] * (len(got) - len(expected))
        assert expected == [1, 5, 11, 14, 11, 5, 1]

    def test_homogeneity_enforced(self, cx):
        with pytest.raises(HomogeneityError):
            quotient_hilbert(cx("OCT"), [P("x1 + x2^2")], 2)

    def test_negative_degree_is_zero(self, cx):
        assert quotient_hilbert(cx("OCT"), [], -1) == 0


class TestIsSop:
    def test_oct_colored(self, cx):
        complex_, cand = oct_colored(cx)
        check = is_sop(complex_, cand)
        assert check.is_sop and check.vanishing_degree == 4

    def test_oct_universal(self, cx):
        assert is_sop(cx("OCT"), universal_sop(6, 3)).is_sop

    def test_three_variables_fail(self, cx):
        cand = SopCandidate.make([P("x1"), P("x2"), P("x3")])
        check = is_sop(cx("OCT"), cand)
        assert not check.is_sop
        assert check.vanishing_degree is None

    def test_wrong_arity(self, cx):
        with pytest.raises(ArityError):
            is_sop(cx("OCT"), SopCandidate.make([P("x1"), P("x2")]))


class TestInverseSystem:
    def test_full_simplex_on_two_vertices(self):
        edge = from_facets([{1, 2}])
        piece = inverse_system_piece(edge, [P("x1^2"), P("x2^2")], 2)
        assert piece.dimension == 1
        assert piece.basis[0] == P("x1*x2") or piece.basis[0] == -1 * P("x1*x2")

    def test_oct_colored_top_piece_is_dual_generator(self, cx):
        complex_, cand = oct_colored(cx)
        piece = inverse_system_piece(complex_, list(cand.theta), 3)
        assert piece.dimension == 1
        F = colored_dual_generator(complex_, balanced_coloring(complex_))
        basis3 = [m for m in piece.basis[0].terms] + [m for m in F.terms]
        from lefkit.monomials import face_monomials

        monos = [Monomial(m) for m in face_monomials(complex_, 3)]
        assert span_contains(piece.basis, F, monos)

    def test_annihilation_invariant(self, cx):
        complex_, cand = oct_colored(cx)
        gens = list(stanley_reisner_generators(complex_).generators) + list(cand.theta)
        for k in range(4):
            piece = inverse_system_piece(complex_, list(cand.theta), k)
            for F in piece.basis:
                for g in gens:
                    assert contract(g, F).is_zero()

    def test_macaulay_dimension_identity(self, cx):
        complex_, cand = oct_colored(cx)
        for k in range(5):
            piece = inverse_system_piece(complex_, list(cand.theta), k)
            assert piece.dimension == quotient_hilbert(complex_, cand.theta, k)

    def test_not_artinian(self, cx):
        with pytest.raises(NotArtinian):
            inverse_system_piece(cx("OCT"), [P("x1")], 2)


class TestIdealMembership:
    def test_linear_form_in_colored_ideal(self, cx):
        complex_, cand = oct_colored(cx)
        L = sum_of_variables(complex_.vertices)
        assert ideal_membership(complex_, list(cand.theta), L)

    def test_squares_in_colored_ideal(self, cx):
        complex_, cand = oct_colored(cx)
        for v in complex_.vertices:
            assert ideal_membership(complex_, list(cand.theta), P(f"x{v}^2"))

    def test_x1_not_in_colored_ideal(self, cx):
        complex_, cand = oct_colored(cx)
        assert not ideal_membership(complex_, list(cand.theta), P("x1"))

    def test_cross_check_against_inverse_system(self, cx):
        # membership of g implies g contracts every inverse-system element
        # of higher degree to something still annihilated; at equal degree,
        # membership iff g pairs to zero with the whole dual piece
        complex_, cand = oct_colored(cx)
        for g in [P("x1^2"), P("x1"), P("x1 + x2")]:
            k = g.degree()
            piece = inverse_system_piece(complex_, list(cand.theta), k)
            pairs_to_zero = all(
                contract(g, F).coefficient(Monomial({})) == 0 for F in piece.basis
            )
            assert pairs_to_zero == ideal_membership(complex_, list(cand.theta), g)

    def test_homogeneity(self, cx):
        complex_, cand = oct_colored(cx)
        with pytest.raises(HomogeneityError):
            ideal_membership(complex_, list(cand.theta), P("x1 + x2^2"))

    def test_foreign_variables_rejected(self, cx):
        from lefkit.errors import PreconditionError

        complex_, cand = oct_colored(cx)
        with pytest.raises(PreconditionError):
            ideal_membership(complex_, list(cand.theta), P("x9"))
        with pytest.raises(PreconditionError):
            quotient_hilbert(complex_, [P("x1 + x9")], 1)


def dense_rank(rows):
    """Rank by plain Gaussian elimination over Fractions, independent of
    lefkit.linalg."""
    rows = [[Fraction(x) for x in row] for row in rows]
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


def facet_rank_criterion(complex_, forms):
    """Kind-Kleinschmidt: linear forms are a sop exactly when their
    restrictions to every facet have full rank."""
    return all(
        dense_rank([[th.coefficient(Monomial({v: 1})) for v in sorted(F)] for th in forms])
        == len(F)
        for F in complex_.facets
    )


class TestNonCohenMacaulaySop:
    """A triangle plus a disjoint edge is not Cohen-Macaulay (h = (1, 3, 0)),
    so the Cohen-Macaulay bound 1 + deg h = 2 on the vanishing degree does
    not apply to its quotients."""

    def triangle_and_edge(self):
        complex_ = from_facets([{1, 2}, {2, 3}, {1, 3}, {4, 5}])
        return complex_, [P("x1 + 2 x2 + 3 x3 + x4"), P("x1 + x2 + x3 + x5")]

    def test_linear_sop_accepted(self):
        complex_, theta = self.triangle_and_edge()
        assert facet_rank_criterion(complex_, theta)
        check = is_sop(complex_, SopCandidate.make(theta))
        assert (check.is_sop, check.vanishing_degree, check.hilbert_values) == (
            True, 3, (1, 3, 1, 0))

    def test_inverse_pieces_match_quotient(self):
        complex_, theta = self.triangle_and_edge()
        for k in range(5):
            piece = inverse_system_piece(complex_, theta, k)
            assert piece.dimension == quotient_hilbert(complex_, theta, k)

    def test_membership_matches_pairing_oracle(self):
        complex_, theta = self.triangle_and_edge()
        forms = [
            Polynomial.from_monomial(Monomial(Counter(combo)))
            for k in range(1, 4)
            for combo in combinations_with_replacement(complex_.vertices, k)
        ]
        forms += [P("x1 - x2"), P("x4 + x5"), P("x1*x2 - x2*x3"), P("x1^2 + x4^2")]
        for g in forms:
            piece = inverse_system_piece(complex_, theta, g.degree())
            pairs_to_zero = all(
                contract(g, F).coefficient(Monomial({})) == 0 for F in piece.basis
            )
            assert pairs_to_zero == ideal_membership(complex_, theta, g), g

    def test_nonlinear_form_refused(self):
        complex_, theta = self.triangle_and_edge()
        theta[1] = P("x1^2 + x5^2")
        with pytest.raises(HypothesisError):
            is_sop(complex_, SopCandidate.make(theta))
        with pytest.raises(HypothesisError):
            inverse_system_piece(complex_, theta, 1)
        with pytest.raises(HypothesisError):
            ideal_membership(complex_, theta, P("x1"))

    @settings(max_examples=60, deadline=None)
    @given(
        facets=st.lists(
            st.frozensets(st.integers(1, 6), min_size=1, max_size=3), min_size=1, max_size=5),
        coeffs=st.lists(
            st.lists(st.integers(-2, 2), min_size=6, max_size=6), min_size=3, max_size=3),
    )
    @example(facets=[{1, 2}, {2, 3}, {1, 3}, {4, 5}],
             coeffs=[[1, 2, 3, 1, 0, 0], [1, 1, 1, 0, 1, 0], [0] * 6])
    def test_linear_sop_matches_facet_rank_criterion(self, facets, coeffs):
        # random complexes on six vertices, often non-pure and not
        # Cohen-Macaulay; form i has coefficient coeffs[i][v - 1] at x_v
        complex_ = from_facets(facets)
        theta = [
            Polynomial({Monomial({v: 1}): row[v - 1] for v in complex_.vertices})
            for row in coeffs[: complex_.dim + 1]
        ]
        assume(not any(th.is_zero() for th in theta))
        expected = facet_rank_criterion(complex_, theta)
        assert is_sop(complex_, SopCandidate.make(theta)).is_sop == expected


class TestWlp:
    def test_oct_caps2_fails_surjectivity_at_2(self, cx):
        report = wlp_check(ArtinianFrame(cx("OCT"), 2))
        assert not report.holds
        failures = report.failures()
        assert len(failures) == 1
        p = failures[0]
        assert (p.k, p.dim_from, p.dim_to, p.rank) == (2, 12, 8, 7)
        assert p.failure_mode == "surjectivity"

    def test_edge_caps3_holds(self, cx):
        assert wlp_check(ArtinianFrame(cx("EDGE"), 3)).holds

    def test_c4_caps2_fails_square_map(self, cx):
        report = wlp_check(ArtinianFrame(cx("C4"), 2))
        assert not report.holds
        p = report.failures()[0]
        assert (p.k, p.dim_from, p.dim_to, p.rank) == (1, 4, 4, 3)
        assert p.failure_mode == "both"

    def test_oct_caps5_fails_injectivity_at_6(self, cx):
        report = wlp_check(ArtinianFrame(cx("OCT"), 5))
        failures = report.failures()
        assert len(failures) == 1
        p = failures[0]
        assert (p.k, p.dim_from, p.dim_to, p.rank) == (6, 116, 120, 115)
        assert p.failure_mode == "injectivity"

    def test_vertex_ids_need_not_be_contiguous(self, cx):
        scaled = from_facets([{10 * v for v in f} for f in cx("OCT").facets])
        cand = colored_sop(scaled, balanced_coloring(scaled))
        L = sum_of_variables(scaled.vertices)
        assert verify_unexpected(scaled, cand, L, 2, 3).overall


def random_connected_graph(rng, n, m):
    """Connected graph on n vertices with m edges: a random tree plus
    random extra edges."""
    edges = {frozenset((v, rng.randrange(1, v))) for v in range(2, n + 1)}
    while len(edges) < m:
        a, b = rng.sample(range(1, n + 1), 2)
        edges.add(frozenset((a, b)))
    return from_facets([set(e) for e in edges])


def random_graph_frames(seed, caps_range):
    rng = random.Random(seed)
    for _ in range(10):
        n = rng.randint(3, 7)
        m = rng.randint(n - 1, n * (n - 1) // 2)
        g = random_connected_graph(rng, n, m)
        for caps in caps_range:
            yield ArtinianFrame(g, caps)


def direct_ranks(frame, form, degrees):
    return [linalg.rank(multiplication_matrix(frame, form, k)) for k in degrees]


class TestOntoPropagation:
    """Ranks inferred after ×L becomes onto against direct elimination."""

    @pytest.mark.parametrize("name", fixtures.FIXTURE_NAMES)
    def test_fixture_ranks_match_direct(self, cx, name):
        for caps in (2, 3, 4, 5):
            frame = ArtinianFrame(cx(name), caps)
            report = wlp_check(frame)
            direct = direct_ranks(frame, frame.linear_form(), range(report.socle_degree))
            assert [p.rank for p in report.per_degree] == direct, (name, caps)

    def test_random_graph_ranks_match_direct(self):
        for frame in random_graph_frames(2011, (2, 3, 4)):
            report = wlp_check(frame)
            direct = direct_ranks(frame, frame.linear_form(), range(report.socle_degree))
            assert [p.rank for p in report.per_degree] == direct, frame

    def test_onto_degrees_are_not_eliminated(self, monkeypatch):
        # K33 caps 4 has dims 1, 6, 15, 24, 27, 18, 9: going down, 3 fails
        # injectivity (rank 23) and 2 is injective, so 0 and 1 are
        # decided; going up, 4 is the first onto degree, so 5 is decided.
        # The peel reads 2 and 4 from its levels, so only 3 is eliminated
        report, eliminated = eliminated_degrees(monkeypatch, ArtinianFrame(K33, 4))
        first_onto = next(p.k for p in report.per_degree if p.rank == p.dim_to)
        assert first_onto == 4 < report.socle_degree - 1
        assert [(p.k, p.rank) for p in report.failures()] == [(3, 23)]
        assert eliminated == {3}
        assert report == check_direct(ArtinianFrame(K33, 4))


def eliminated_degrees(monkeypatch, frame):
    """``wlp_check(frame)`` and the set of degrees whose ×L it eliminated,
    each ranked matrix traced back to the degree of its ×L map.  Ranks
    taken on a link's frame, for its Jordan type, are not the frame's."""
    degree_of = {}
    eliminated = set()
    real_matrix, real_rank = IsotypicMaps.matrix, linalg.rank

    def recording_matrix(self, k):
        out = real_matrix(self, k)
        if self.frame == frame:
            degree_of[id(out)] = k
        return out

    def recording_rank(matrix):
        if id(matrix) in degree_of:
            eliminated.add(degree_of.pop(id(matrix)))
        return real_rank(matrix)

    with monkeypatch.context() as patch:
        patch.setattr(IsotypicMaps, "matrix", recording_matrix)
        patch.setattr(linalg, "rank", recording_rank)
        report = wlp_check(frame)
    return report, eliminated


def brute_force_socle_degrees(frame):
    """The degrees of the standard monomials m with every x_v m
    non-standard, read from the bases degree by degree until they end."""
    out = set()
    below = standard_monomials(frame.complex, 0, frame.caps)
    k = 0
    while below:
        above = set(standard_monomials(frame.complex, k + 1, frame.caps))
        if any(all(_times(m, ((v, 1),)) not in above for v in frame.complex.vertices)
               for m in below):
            out.add(k)
        below, k = tuple(above), k + 1
    return out


@st.composite
def capped_frames(draw):
    """Small complexes, non-pure, with isolated vertices and ids spread
    out, each vertex with its own cap from 2 to 5."""
    n = draw(st.integers(1, 6))
    facet = st.frozensets(st.integers(1, n), min_size=1, max_size=3)
    facets = draw(st.lists(facet, min_size=1, max_size=5))
    facets += [{n + i} for i in range(draw(st.integers(0, 2)))]
    vs = sorted(set().union(*facets))
    name = dict(zip(vs, draw(st.lists(st.integers(1, 60), min_size=len(vs),
                                      max_size=len(vs), unique=True))))
    complex_ = from_facets([{name[v] for v in f} for f in facets])
    caps = {v: draw(st.integers(2, 5)) for v in complex_.vertices}
    return ArtinianFrame(complex_, caps)


def check_direct(frame):
    report = wlp_check(frame)
    direct = direct_ranks(frame, frame.linear_form(), range(report.socle_degree))
    assert [p.rank for p in report.per_degree] == direct, frame
    return report


# the edge {1, 2} at caps 5 and the isolated vertex 3 at cap 2: x3 is
# socle in degree 1, so ×L is not injective there though it is on A_2
EDGE_AND_POINT = ArtinianFrame(from_facets([{1, 2}, {3}]), {1: 5, 2: 5, 3: 2})
# ×L fails injectivity on A_2 (a socle degree, dims 6 -> 6) and on A_1
# (no socle, dims 5 -> 6), so no rank may be passed down from degree 2
TWO_FAILURES = ArtinianFrame(from_facets([{1, 3}, {2, 4, 6}]), {1: 2, 2: 3, 3: 2, 4: 2, 6: 4})
# the complete graph K4 at caps 4 and the isolated vertex 5 at cap 2; the
# peel takes the point off, then K4's vertices, whose links are no joins
K4 = from_facets([{a, b} for a in range(1, 5) for b in range(a + 1, 5)])
K4_AND_POINT = ArtinianFrame(from_facets([*K4.facets, {5}]), {1: 4, 2: 4, 3: 4, 4: 4, 5: 2})
# the real projective plane on 6 vertices, every link a 5-cycle, and the
# 7-vertex torus, every link a 6-cycle: no link is a join
RP2 = from_facets([{1, 2, 3}, {1, 3, 4}, {1, 4, 5}, {1, 5, 6}, {1, 2, 6},
                   {2, 3, 5}, {3, 4, 6}, {2, 4, 5}, {3, 5, 6}, {2, 4, 6}])
T7 = from_facets([{i % 7 + 1, (i + 1) % 7 + 1, (i + 3) % 7 + 1} for i in range(7)]
                 + [{i % 7 + 1, (i + 2) % 7 + 1, (i + 3) % 7 + 1} for i in range(7)])


class TestSocleRule:
    """Ranks passed down from an injective degree to degrees without
    socle, against direct elimination."""

    @pytest.mark.parametrize("name", fixtures.FIXTURE_NAMES)
    def test_relabelled_fixture_ranks_match_direct(self, cx, name):
        rng = random.Random(name)
        for caps in (2, 3, 4, 5):
            frame = ArtinianFrame(cx(name), caps)
            direct = direct_ranks(frame, frame.linear_form(), range(frame.socle_degree()))
            report = wlp_check(relabelled(frame, rng))
            assert [p.rank for p in report.per_degree] == direct, (name, caps)

    def test_relabelled_random_graph_ranks_match_direct(self):
        rng = random.Random(2013)
        for frame in random_graph_frames(2013, (2, 3, 4, 5)):
            check_direct(relabelled(frame, rng))

    @settings(max_examples=150, deadline=None)
    @given(capped_frames())
    @example(EDGE_AND_POINT)
    @example(TWO_FAILURES)
    def test_mixed_caps_and_non_pure_ranks_match_direct(self, frame):
        check_direct(frame)

    def test_isolated_socle_stops_the_chain(self):
        for frame in (EDGE_AND_POINT, relabelled(EDGE_AND_POINT, random.Random(5))):
            assert frame.socle_degrees() == {1, 8}
            report = check_direct(frame)
            p = report.per_degree[1]
            assert (p.dim_from, p.dim_to, p.rank) == (3, 3, 2)
            assert report.per_degree[2].rank == report.per_degree[2].dim_from == 3

    def test_no_rank_passes_down_from_a_failure(self):
        report = check_direct(TWO_FAILURES)
        assert TWO_FAILURES.socle_degrees() == {2, 6}
        assert [(p.dim_from, p.rank) for p in report.per_degree[:3]] == [(1, 1), (5, 4), (6, 5)]

    def test_ball10_eliminates_nothing(self, cx, monkeypatch):
        # dims rise to 1134 in degree 8; the peel certifies that 7 is
        # injective, and no degree below holds socle; it reads the rank of
        # 8, which fails surjectivity (1134 -> 1076), and certifies that 9
        # is onto
        report, eliminated = eliminated_degrees(monkeypatch, ArtinianFrame(cx("BALL10"), 4))
        assert [(p.k, p.rank) for p in report.failures()] == [(8, 1069)]
        assert eliminated == set()

    def test_dunce_eliminates_two_degrees(self, cx, monkeypatch):
        # no link of DUNCE is a join, so its peel takes the links' Jordan
        # types; at caps 5 the dims rise to 252 in degree 7 and the only
        # socle degree is 12: 6 fails injectivity (242 -> 252, rank 241), 5
        # is injective, so 0 to 4 are decided; going up, 7 is the first
        # onto degree, so 8 to 11 are decided, and the peel reads 7
        frame = ArtinianFrame(cx("DUNCE"), 5)
        assert len(lefschetz._peeled_strings(frame)) == 7
        report, eliminated = eliminated_degrees(monkeypatch, frame)
        assert [(p.k, p.rank) for p in report.failures()] == [(6, 241)]
        assert eliminated == {5, 6}
        assert report == check_direct(frame)

    @settings(max_examples=150, deadline=None)
    @given(capped_frames())
    @example(EDGE_AND_POINT)
    def test_socle_degrees_match_brute_force(self, frame):
        expected = brute_force_socle_degrees(frame)
        assert frame.socle_degrees() == expected
        assert frame.socle_degree() == max(expected)

    def test_layouts_serve_both_orders(self):
        frame = ArtinianFrame(K33, 5)
        top = frame.socle_degree()
        fresh = {k: IsotypicMaps(frame).matrix(k) for k in range(top)}
        maps = IsotypicMaps(frame)
        built = []
        real_layout = maps._layout
        maps._layout = lambda k: built.append(k) or real_layout(k)
        for k in [4, 3, 2, 3, 4, 5, 0, 1, top - 1]:
            assert maps.matrix(k) == fresh[k], k
        # a walk that turns builds no layout again
        assert sorted(built) == [0, 1, 2, 3, 4, 5, 6, top - 1, top]


class TestHilbertSeries:
    """Dimensions counted from the faces against the enumerated bases."""

    @settings(max_examples=150, deadline=None)
    @given(capped_frames())
    @example(EDGE_AND_POINT)
    def test_matches_the_bases(self, frame):
        top = frame.socle_degree()
        assert hilbert_series(frame) == tuple(hilbert_function(frame, k) for k in range(top + 1))

    @pytest.mark.parametrize("name", fixtures.FIXTURE_NAMES)
    def test_fixtures_match_the_bases(self, cx, name):
        for caps in (2, 3, 4):
            frame = ArtinianFrame(cx(name), caps)
            top = frame.socle_degree()
            expected = tuple(hilbert_function(frame, k) for k in range(top + 1))
            assert hilbert_series(frame) == expected, (name, caps)


def slp_reference(frame):
    """``slp_check`` with every rank computed by elimination."""
    L = frame.linear_form()
    socle = frame.socle_degree()
    per = []
    power = Polynomial.constant(1)
    for j in range(1, socle + 1):
        power = power * L
        for i in range(socle - j + 1):
            a = hilbert_function(frame, i)
            b = hilbert_function(frame, i + j)
            r = linalg.rank(multiplication_matrix(frame, power, i))
            per.append((j, i, a, b, r, r == min(a, b)))
    return SlpReport(all(p[5] for p in per), socle, tuple(per))


class TestSlp:
    @pytest.mark.parametrize(
        "name, caps",
        [("OCT", 2), ("OCT", 3), ("C4", 2), ("C4", 4), ("EDGE", 3),
         ("PATH3", 4), ("FAN4", 2), ("DUNCE", 2), ("CROSS4", 2)],
    )
    def test_skipped_ranks_match_reference(self, cx, name, caps):
        frame = ArtinianFrame(cx(name), caps)
        assert slp_check(frame) == slp_reference(frame)

    def test_skipped_ranks_match_reference_on_random_graphs(self):
        for frame in random_graph_frames(1984, (2, 3)):
            assert slp_check(frame) == slp_reference(frame), frame

    def test_single_variable(self):
        frame = ArtinianFrame(from_facets([{1}]), 4)
        assert slp_check(frame).holds

    def test_monomial_complete_intersection(self):
        frame = ArtinianFrame(from_facets([{1, 2, 3}]), 2)
        assert slp_check(frame).holds

    def test_oct_caps2_fails(self, cx):
        assert not slp_check(ArtinianFrame(cx("OCT"), 2)).holds


def _power_maps(frame: ArtinianFrame):
    """(i, j, matrix of ×L^j from degree i) for every i + j up to the
    socle degree, i ascending, then j.  Each ×L map M_k is built once, and
    ×L^j from degree i is M_{i+j-1} times ×L^{j-1} from degree i: the
    matrix ``multiplication_matrix`` gives for the expanded L^j."""
    L = frame.linear_form()
    socle = frame.socle_degree()
    steps = [multiplication_matrix(frame, L, k) for k in range(socle)]
    for i in range(socle):
        power = steps[i]
        yield i, 1, power
        for j in range(2, socle - i + 1):
            power = steps[i + j - 1] @ power
            yield i, j, power


def expanded_power_maps(frame):
    """``_power_maps`` built the old way: L^j expanded as a polynomial and
    its matrix built from the monomial products."""
    L = frame.linear_form()
    socle = frame.socle_degree()
    powers = [Polynomial.constant(1)]
    for _ in range(socle):
        powers.append(powers[-1] * L)
    return [(i, j, multiplication_matrix(frame, powers[j], i))
            for i in range(socle) for j in range(1, socle - i + 1)]


# BALL10 and CROSS4 at caps 3 take tens of seconds on the expanded path
SLOW_AT_CAPS_3 = ("BALL10", "CROSS4")


def fixture_frames(cx, names=fixtures.FIXTURE_NAMES):
    for name in names:
        for caps in (2, 3):
            if not (caps == 3 and name in SLOW_AT_CAPS_3):
                yield ArtinianFrame(cx(name), caps)


class TestComposedPowers:
    """×L^j composed from ×L maps against the expanded L^j."""

    @pytest.mark.parametrize("name", fixtures.FIXTURE_NAMES)
    def test_fixture_maps_equal_expanded_powers(self, cx, name):
        for frame in fixture_frames(cx, [name]):
            assert list(_power_maps(frame)) == expanded_power_maps(frame), frame

    def test_random_graph_maps_equal_expanded_powers(self):
        for frame in random_graph_frames(577, (2, 3, 4)):
            assert list(_power_maps(frame)) == expanded_power_maps(frame), frame

    @pytest.mark.parametrize("name", fixtures.FIXTURE_NAMES)
    def test_reports_match_reference(self, cx, name):
        for frame in fixture_frames(cx, [name]):
            assert slp_check(frame) == slp_reference(frame), frame

    def test_reports_match_reference_on_random_graphs(self):
        for frame in random_graph_frames(4242, (2, 3, 4)):
            assert slp_check(frame) == slp_reference(frame), frame

    def test_only_linear_maps_are_built(self, cx, monkeypatch):
        # frames that take the walk: no fixture here is a simplex joined
        # with suspensions, and K33 has twins; the peel decides every pair
        # of FAN4 and BALL10, so no map is built there.  DUNCE's links build
        # maps of their own, for their Jordan types, which are not counted
        calls, built = [], []
        real, real_matrix = lefschetz.multiplication_matrix, IsotypicMaps.matrix

        def recording(frame, f, k):
            calls.append((f.degree(), k))
            return real(frame, f, k)

        def recording_matrix(self, k):
            if self.frame == frame:
                built.append(k)
            return real_matrix(self, k)

        monkeypatch.setattr(lefschetz, "multiplication_matrix", recording)
        monkeypatch.setattr(IsotypicMaps, "matrix", recording_matrix)
        frames = [*fixture_frames(cx, ["FAN4", "DUNCE", "BALL10", "C3"]),
                  ArtinianFrame(K33, 2), ArtinianFrame(K33, 3)]
        for frame in frames:
            calls.clear()
            built.clear()
            slp_check(frame)
            # each ×L map at most once, in the symmetry-adapted bases; no
            # L^j expanded
            assert not calls, frame
            assert built == sorted(set(built)), frame
            if frame.complex in (cx("FAN4"), cx("BALL10")):
                assert built == [], frame

    def test_first_power_matches_wlp(self, cx):
        frames = [*fixture_frames(cx), ArtinianFrame(cx("BALL10"), 3),
                  *random_graph_frames(99, (2, 3, 4))]
        for frame in frames:
            slp = slp_check(frame)
            first = [(i, a, b, r) for j, i, a, b, r, _ in slp.per_pair if j == 1]
            wlp = wlp_check(frame)
            assert first == [(p.k, p.dim_from, p.dim_to, p.rank) for p in wlp.per_degree], frame


class TestKernelTranspose:
    def test_oct_caps2_degree3(self, cx):
        frame = ArtinianFrame(cx("OCT"), 2)
        piece = kernel_transpose_basis(frame, 3)
        assert piece.dimension == 1
        F = colored_dual_generator(cx("OCT"), balanced_coloring(cx("OCT")))
        kern = piece.basis[0]
        # equal up to scalar
        ratios = {kern.coefficient(m) / c for m, c in F.terms.items()}
        assert len(ratios) == 1

    def test_degree_zero_rejected(self, cx):
        with pytest.raises(RangeError):
            kernel_transpose_basis(ArtinianFrame(cx("OCT"), 2), 0)


class TestColoredSop:
    def test_oct(self, cx):
        complex_, cand = oct_colored(cx)
        assert {str(t) for t in cand.theta} == {"x1 + x2", "x3 + x4", "x5 + x6"}
        assert cand.total_degree_t == 3

    def test_c4(self, cx):
        cand = colored_sop(cx("C4"), balanced_coloring(cx("C4")))
        assert {str(t) for t in cand.theta} == {"x1 + x3", "x2 + x4"}

    def test_simplex_distinct_colors(self):
        simplex = from_facets([{1, 2, 3}])
        cand = colored_sop(simplex, balanced_coloring(simplex))
        assert {str(t) for t in cand.theta} == {"x1", "x2", "x3"}

    def test_improper_coloring_rejected(self, cx):
        bad = Coloring({v: 1 for v in cx("OCT").vertices}, 3)
        with pytest.raises(ColoringError):
            colored_sop(cx("OCT"), bad)


class TestColoredDualGenerator:
    EIGHT_TERM_F = (
        "x1*x4*x5 - x1*x3*x5 + x1*x3*x6 - x1*x4*x6"
        " - x2*x4*x5 + x2*x4*x6 - x2*x3*x6 + x2*x3*x5"
    )

    def test_oct_eight_term_polynomial(self, cx):
        F = colored_dual_generator(cx("OCT"), balanced_coloring(cx("OCT")))
        expected = P(self.EIGHT_TERM_F)
        assert F == expected or F == -1 * expected

    def test_c4_alternating_cycle(self, cx):
        F = colored_dual_generator(cx("C4"), balanced_coloring(cx("C4")))
        expected = P("x1*x2 - x2*x3 + x3*x4 - x1*x4")
        assert F == expected or F == -1 * expected

    @pytest.mark.parametrize("name", ["OCT", "C4", "CROSS4"])
    def test_spans_transpose_kernel_at_top(self, cx, name):
        complex_ = cx(name)
        F = colored_dual_generator(complex_, balanced_coloring(complex_))
        frame = ArtinianFrame(complex_, 2)
        piece = kernel_transpose_basis(frame, complex_.dim + 1)
        assert piece.dimension == 1
        monos = standard_basis(frame, complex_.dim + 1)
        assert span_contains(piece.basis, F, monos)

    def test_non_sphere_rejected(self, cx):
        fan = cx("FAN4")
        with pytest.raises(HypothesisError):
            colored_dual_generator(fan, balanced_coloring(fan))


class TestUniversalSop:
    def test_n3_count2(self):
        cand = universal_sop(3, 2)
        assert str(cand.theta[0]) == "x1 + x2 + x3"
        assert str(cand.theta[1]) == "x1*x2 + x1*x3 + x2*x3"

    def test_n1(self):
        cand = universal_sop(1, 1)
        assert [str(t) for t in cand.theta] == ["x1"]

    def test_total_degree_for_oct(self):
        assert universal_sop(6, 3).total_degree_t == 6  # binom(4, 2)

    def test_out_of_range(self):
        with pytest.raises(RangeError):
            universal_sop(3, 4)
        with pytest.raises(RangeError):
            universal_sop(3, 0)


class TestVerifyUnexpected:
    def test_oct_colored(self, cx):
        complex_, cand = oct_colored(cx)
        L = sum_of_variables(complex_.vertices)
        report = verify_unexpected(complex_, cand, L, 2, 3)
        assert report.overall
        assert (report.u1, report.u2, report.u3, report.u4, report.u5) == (True,) * 5

    def test_oct_colored_wrong_t(self, cx):
        complex_, cand = oct_colored(cx)
        L = sum_of_variables(complex_.vertices)
        report = verify_unexpected(complex_, cand, L, 2, 4)
        assert not report.overall
        assert not report.u2
        assert report.u1 and report.u3 and report.u4 and report.u5

    def test_t_below_h_degree_rejected(self, cx):
        complex_, cand = oct_colored(cx)
        L = sum_of_variables(complex_.vertices)
        with pytest.raises(RangeError):
            verify_unexpected(complex_, cand, L, 2, 2)

    def test_crosspolytope_known_unexpected_sops(self, cx):
        # the two 3-unexpected sops of the 4-dimensional crosspolytope
        cross = cx("CROSS4")
        L = sum_of_variables(cross.vertices)
        for second, squares in [
            ("x1+x2+x3+x4", "x3^2+x4^2"),
            ("x1+x2+x5+x6", "x5^2+x6^2"),
        ]:
            cand = SopCandidate.make([L, P(second), P(squares), P("x7^2+x8^2")])
            report = verify_unexpected(cross, cand, L, 3, 6)
            assert report.overall, report.witnesses

    def test_unexpected_forces_surjectivity_failure(self, cx):
        # whenever the verdict passes with f = L, multiplication fails
        # surjectivity at degree t - 1
        cases = [
            ("OCT", oct_colored(cx)[1], 2, 3),
            ("OCT", universal_sop(6, 3), 4, 6),
        ]
        for name, cand, caps, t in cases:
            complex_ = cx(name)
            L = sum_of_variables(complex_.vertices)
            assert verify_unexpected(complex_, cand, L, caps, t).overall
            report = wlp_check(ArtinianFrame(complex_, caps))
            modes = {p.k: p.failure_mode for p in report.per_degree}
            assert modes[t - 1] in ("surjectivity", "both")


class TestGraphClassifier:
    def test_trees_always_pass(self, cx):
        for a in (2, 3, 4, 5):
            assert graph_wlp_classifier(cx("PATH3"), a).wlp
            assert graph_wlp_classifier(cx("EDGE"), a).wlp

    def test_c3_a2(self, cx):
        assert graph_wlp_classifier(cx("C3"), 2).wlp

    def test_c4_a2(self, cx):
        assert not graph_wlp_classifier(cx("C4"), 2).wlp

    def test_agreement_on_fixtures(self, cx):
        for name in fixtures.GRAPH_FIXTURES:
            g = cx(name)
            for a in (2, 3, 4):
                assert graph_wlp_classifier(g, a).wlp == wlp_check(ArtinianFrame(g, a)).holds

    def test_rejects_non_graph(self, cx):
        with pytest.raises(InputError):
            graph_wlp_classifier(cx("OCT"), 2)

    def test_rejects_disconnected(self):
        with pytest.raises(InputError):
            graph_wlp_classifier(from_facets([{1, 2}, {3, 4}]), 2)


class TestDivergenceBound:
    def test_difference_of_variables(self):
        assert divergence_bound_check(P("x1 - x2"), 2)

    def test_crosspolytope_kernel_polynomial(self):
        F = (
            P("x1-x2") * P("x3-x4") * P("x5-x6") * P("x7-x8")
            * P("x1+x2-x3-x4") * P("x5+x6-x7-x8")
        )
        assert divergence_bound_check(F, 3)

    def test_nonzero_divergence_rejected(self):
        with pytest.raises(HypothesisError):
            divergence_bound_check(P("x1"), 2)

    def test_exponent_violation_rejected(self):
        with pytest.raises(HypothesisError):
            divergence_bound_check(P("x1^2 - x1*x2"), 2)

    def test_kernel_elements_after_rescale(self, cx):
        frame = ArtinianFrame(cx("OCT"), 2)
        piece = kernel_transpose_basis(frame, 3)
        rng = random.Random(3)
        vecs = list(piece.basis)
        for _ in range(3):
            combo = Polynomial.zero()
            for F in vecs:
                combo = combo + rng.randint(1, 5) * F
            assert divergence_bound_check(divided_power_rescale(combo), 2, n=6)

    @pytest.mark.parametrize("name, caps, k", [("OCT", 2, 3), ("OCT", 5, 7), ("BALL10", 4, 9),
                                               ("C4", 3, 4)])
    def test_contraction_on_the_unscaled_witness(self, cx, name, caps, k):
        # the check the CLI runs on kernel witnesses, against the rescaled
        # polynomial's divergence check
        frame = ArtinianFrame(cx(name), caps)
        n = len(frame.complex.vertices)
        for F in kernel_transpose_basis(frame, k).basis:
            expected = divergence_bound_check(divided_power_rescale(F), caps, n=n)
            assert contraction_bound_check(F, caps, n=n) == expected

    @pytest.mark.parametrize("text, cap", [("x1", 2), ("x1^2*x2 - x2^3", 4),
                                           ("x1^2 - x1*x2", 2), ("x1^2 - 2 x1*x2", 3)])
    def test_contraction_refuses_as_the_rescaled_check_does(self, text, cap):
        F = P(text)
        with pytest.raises(HypothesisError) as rescaled:
            divergence_bound_check(divided_power_rescale(F), cap)
        with pytest.raises(HypothesisError) as unscaled:
            contraction_bound_check(F, cap)
        assert str(unscaled.value) == str(rescaled.value)


class TestDaoNair:
    @pytest.mark.parametrize("name", ["OCT", "CROSS4", "C3", "C4"])
    def test_equivalence_on_pseudomanifolds(self, cx, name):
        from lefkit.subdivision import facet_ridge_graph

        complex_ = cx(name)
        d = complex_.dim
        frame = ArtinianFrame(complex_, 2)
        mat = multiplication_matrix(frame, frame.linear_form(), d)
        surjective = linalg.rank(mat) == hilbert_function(frame, d + 1)
        bipartite = facet_ridge_graph(complex_).bipartition is not None
        assert surjective == (not bipartite)


class TestHausel:
    @pytest.mark.parametrize("name", fixtures.GRAPH_FIXTURES)
    @pytest.mark.parametrize("a", [2, 3, 4, 5])
    def test_injectivity_up_to_middle(self, cx, name, a):
        frame = ArtinianFrame(cx(name), a)
        L = frame.linear_form()
        for k in range(a - 1):  # 0..a-2
            mat = multiplication_matrix(frame, L, k)
            assert linalg.rank(mat) == hilbert_function(frame, k)


class TestFrameIsAQuotient:
    """A capped frame is the quotient by the pure powers of its caps."""

    @pytest.mark.parametrize("name", fixtures.FIXTURE_NAMES)
    @pytest.mark.parametrize("caps", [2, 3, 4])
    def test_fixture_frames(self, cx, name, caps):
        frame = ArtinianFrame(cx(name), caps)
        powers = frame.power_generators()
        for k in range(frame.socle_degree() + 2):
            assert hilbert_function(frame, k) == quotient_hilbert(frame.complex, powers, k)

    @settings(max_examples=60, deadline=None)
    @given(
        facets=st.lists(
            st.frozensets(st.integers(1, 6), min_size=1, max_size=3), min_size=1, max_size=5),
        caps=st.lists(st.integers(2, 4), min_size=6, max_size=6),
    )
    def test_random_frames(self, facets, caps):
        complex_ = from_facets(facets)
        frame = ArtinianFrame(complex_, {v: caps[v - 1] for v in complex_.vertices})
        powers = frame.power_generators()
        for k in range(frame.socle_degree() + 2):
            assert hilbert_function(frame, k) == quotient_hilbert(complex_, powers, k)


class TestCappedNonCohenMacaulayQuotient:
    """Pure powers of every vertex bound the vanishing degree by the
    frame's socle degree + 1, also on a complex that is not Cohen-Macaulay."""

    def capped_triangle_and_edge(self):
        complex_ = from_facets([{1, 2}, {2, 3}, {1, 3}, {4, 5}])
        extra = ArtinianFrame(complex_, 2).power_generators() + [P("x1^2 + x5^2")]
        return complex_, extra

    def test_values_and_inverse_system(self):
        complex_, extra = self.capped_triangle_and_edge()
        values = [quotient_hilbert(complex_, extra, k) for k in range(5)]
        assert values == [1, 5, 4, 0, 0]
        for k in range(5):
            assert inverse_system_piece(complex_, extra, k).dimension == values[k]

    def test_membership_matches_pairing_oracle(self):
        complex_, extra = self.capped_triangle_and_edge()
        forms = [P("x1"), P("x1^2"), P("x1*x2"), P("x1*x2 + x4*x5"), P("x1*x4"),
                 P("x1*x2*x3"), P("x4*x5 - x2^2")]
        for g in forms:
            piece = inverse_system_piece(complex_, extra, g.degree())
            pairs_to_zero = all(
                contract(g, F).coefficient(Monomial({})) == 0 for F in piece.basis
            )
            assert pairs_to_zero == ideal_membership(complex_, extra, g), g

    def test_a_missing_power_is_still_refused(self):
        complex_, extra = self.capped_triangle_and_edge()
        with pytest.raises(HypothesisError):
            inverse_system_piece(complex_, extra[1:], 1)


def assert_normal_form(m):
    """m equals what the validating constructor makes of its entries, and
    every entry is nonzero, inside the shape and an int when integral."""
    assert linalg.ExactMatrix(m.rows, m.cols, m.entries) == m
    for (i, j), v in m.entries.items():
        assert 0 <= i < m.rows and 0 <= j < m.cols
        assert (type(v) is int and v) or (type(v) is Fraction and v.denominator != 1)


def random_pure_power_form(rng, vertices, degree):
    while True:
        form = Polynomial({Monomial({v: degree}): Fraction(rng.randint(0, 6), rng.randint(1, 3))
                           for v in vertices})
        if not form.is_zero():
            return form


def inverse_system_cases(cx):
    """(complex, extra forms, degrees): the sops of the inverse-system
    tests, sops with one form given twice, sops of quadratic and cubic
    forms with non-squarefree terms and ``Fraction`` coefficients, a
    capped quotient with a cubic form, and seeded random sops with
    non-integral coefficients, a quadratic form in every other one on
    OCT."""
    oct_ = cx("OCT")
    c4 = cx("C4")
    tri = from_facets([{1, 2}, {2, 3}, {1, 3}, {4, 5}])
    colored = list(colored_sop(oct_, balanced_coloring(oct_)).theta)
    mixed = [P("x1 + x2"), P("x3^2 - 1/2 x3*x5 + x4^2"),
             P("x5^3 + 2/3 x1^2*x5 + x6^3 - x2*x6^2")]
    square_cube = [P("x1^2 + 3/2 x2^2 - x3*x4 + x4^2"),
                   P("x1^2*x2 + x3^3 - 1/3 x4^3 + x2*x3^2")]
    cases = [
        (oct_, colored, range(5)),
        (oct_, colored + colored[:1], range(5)),
        (oct_, mixed, range(9)),
        (oct_, mixed + mixed[2:], range(9)),
        (c4, square_cube, range(8)),
        (tri, ArtinianFrame(tri, 3).power_generators() + [P("x1^2*x2 - 2/5 x5^3 + x4*x5^2")],
         range(7)),
        (oct_, list(universal_sop(6, 3).theta), range(8)),
        (from_facets([{1, 2}]), [P("x1^2"), P("x2^2")], range(4)),
        (tri, [P("x1 + 2 x2 + 3 x3 + x4"), P("x1 + x2 + x3 + x5")], range(5)),
        (tri, ArtinianFrame(tri, 2).power_generators() + [P("x1^2 + x5^2")], range(5)),
    ]
    rng = random.Random(20260809)
    for name in ("OCT", "C4", "CROSS4"):
        complex_ = cx(name)
        for n in range(4):
            while True:
                forms = [random_pure_power_form(rng, complex_.vertices, 1)
                         for _ in range(complex_.dim + 1)]
                if name == "OCT" and n % 2:
                    forms[-1] = random_pure_power_form(rng, complex_.vertices, 2)
                check = is_sop(complex_, SopCandidate.make(forms))
                if check.is_sop:
                    cases.append((complex_, forms, range(check.vanishing_degree + 1)))
                    break
    return cases


def contraction_matrix_reference(complex_, extra, k):
    """The standard monomials and the contraction matrix of
    ``inverse_system_piece`` as the pairwise loop built them: division
    through a dict of exponents, entries summed as ``Fraction`` and
    checked by the constructor."""
    _, _, basis, others = lefschetz._graded_basis(complex_, tuple(extra), k)
    cols = [Monomial(b) for b in basis]
    row_index, entries = {}, {}
    for g in others:
        for j, b in enumerate(cols):
            for ma, ca in g.terms.items():
                rest = dict(b.exps)
                if all(rest.get(v, 0) >= e for v, e in ma.exps):
                    for v, e in ma.exps:
                        rest[v] -= e
                    i = row_index.setdefault((g, Monomial(rest)), len(row_index))
                    entries[i, j] = entries.get((i, j), 0) + ca
    return cols, linalg.ExactMatrix(len(row_index), len(cols), entries)


def sparse_case(complex_, extra, degrees, rng):
    """The case with its vertices renamed to ids at and above 2^20, in a
    random order."""
    rename = dict(zip(complex_.vertices, rng.sample(range(1 << 20, 1 << 40), len(complex_.vertices))))
    moved = from_facets([{rename[v] for v in f} for f in complex_.facets])
    forms = [Polynomial({Monomial({rename[v]: e for v, e in m.exps}): c for m, c in g.terms.items()})
             for g in extra]
    return moved, forms, degrees


def coded_builder_cases(cx):
    """Sops with monomial filters and mixed pure-power caps added, and
    these and ``inverse_system_cases`` again on ids at and above 2^20."""
    oct_, c4 = cx("OCT"), cx("C4")
    colored = list(colored_sop(oct_, balanced_coloring(oct_)).theta)
    cases = [
        (oct_, colored + [P("x1*x3"), P("x2*x5^2"), P("x4^3")], range(5)),
        (oct_, [P("x1 + x2"), P("x3^2 - 1/2 x3*x5 + x4^2"), P("x5^3 + 2/3 x1^2*x5 + x6^3"),
                P("x1^2"), P("x3^3"), P("x6^4"), P("x2*x4")], range(9)),
        (c4, [P("x1^2 + 3/2 x2^2 - x3*x4 + x4^2"), P("x1^2*x2 + x3^3 - 1/3 x4^3"),
              P("x1*x2^2"), P("x3^2")], range(8)),
    ]
    rng = random.Random(1 << 20)
    return cases + [sparse_case(*case, rng) for case in inverse_system_cases(cx) + cases]


def check_contraction_matrices(cases, monkeypatch):
    """Below the first vanishing degree N the contraction matrix is the
    pairwise loop's, entry for entry and in row order, and its kernel the
    piece.  From N on no matrix is built, and the pairwise loop's matrix
    has no kernel there: duality is checked exactly where the piece skips
    it."""
    built = []
    kernel_basis = linalg.kernel_basis
    with monkeypatch.context() as patch:
        patch.setattr(linalg, "kernel_basis", lambda m: built.append(m) or kernel_basis(m))
        for complex_, extra, degrees in cases:
            # the complex's homology and the Hilbert scan come first
            vanishing = lefschetz._first_vanishing(complex_, tuple(extra))[0]
            for k in degrees:
                built.clear()
                piece = inverse_system_piece(complex_, extra, k)
                cols, reference = contraction_matrix_reference(complex_, extra, k)
                assert piece.dimension == quotient_hilbert(complex_, extra, k)
                if k >= vanishing:
                    assert built == [], (complex_, extra, k)
                    assert piece.basis == ()
                    assert kernel_basis(reference).vectors == (), (complex_, extra, k)
                    continue
                [matrix] = built
                assert matrix == reference, (complex_, extra, k)
                assert_normal_form(matrix)
                assert piece.basis == tuple(
                    Polynomial({cols[j]: c for j, c in enumerate(vec) if c})
                    for vec in kernel_basis(reference).vectors
                )


class TestContractionMatrixOracle:
    def test_fixture_sops_match_the_pairwise_loop(self, cx, monkeypatch):
        check_contraction_matrices(inverse_system_cases(cx), monkeypatch)

    def test_filters_mixed_caps_and_sparse_ids(self, cx, monkeypatch):
        check_contraction_matrices(coded_builder_cases(cx), monkeypatch)


def span_rows_reference(complex_, extra, k):
    """The span matrix of ``_hilbert`` as the tuple-product loop built it:
    a row per span form g and standard monomial m of degree k - deg g,
    each product m·t (``_times``) looked up among the standard monomials
    of degree k, the entries read by the validating constructor."""
    caps, filters, cols, others = lefschetz._graded_basis(complex_, tuple(extra), k)
    index = {m: j for j, m in enumerate(cols)}
    entries = {}
    i = 0
    for g in others:
        for m in standard_monomials(complex_, k - g.degree(), caps, filters):
            for t, c in g.terms.items():
                j = index.get(_times(m, t.exps))
                if j is not None:
                    entries[i, j] = c
            i += 1
    return linalg.ExactMatrix(i, len(cols), entries)


class TestSpanRowsOracle:
    def test_cases_match_the_tuple_products(self, cx, monkeypatch):
        """The span ``_hilbert`` ranks is the tuple-product loop's, entry
        for entry, in insertion order and in shape; a span without
        entries takes no rank."""
        built = []
        rank = linalg.rank
        monkeypatch.setattr(linalg, "rank", lambda m: built.append(m) or rank(m))
        for complex_, extra, degrees in inverse_system_cases(cx) + coded_builder_cases(cx):
            for k in degrees:
                built.clear()
                value = lefschetz._hilbert.__wrapped__(complex_, tuple(extra), k)
                reference = span_rows_reference(complex_, extra, k)
                assert value == reference.cols - rank(reference), (complex_, extra, k)
                if not reference.entries:
                    assert built == [], (complex_, extra, k)
                    continue
                [span] = built
                assert span == reference, (complex_, extra, k)
                assert list(span.entries.items()) == list(reference.entries.items())


class TestTrustedMatrices:
    """Matrices the library builds without the constructor's checks hold
    what the constructor would have made of them."""

    @pytest.mark.parametrize("name", fixtures.FIXTURE_NAMES)
    @pytest.mark.parametrize("caps", [2, 3])
    def test_frame_maps(self, cx, name, caps):
        frame = ArtinianFrame(cx(name), caps)
        vs = frame.complex.vertices
        forms = [
            frame.linear_form(),
            Polynomial({Monomial({vs[0]: 1}): Fraction(1, 2), Monomial({vs[-1]: 1}): -3}),
            Polynomial({Monomial({vs[0]: 1, vs[1]: 1}): Fraction(2, 3), Monomial({vs[1]: 2}): 4}),
        ]
        maps = IsotypicMaps(frame)
        for k in range(frame.socle_degree()):
            assert_normal_form(maps.matrix(k))
            for f in forms:
                mat = multiplication_matrix(frame, f, k)
                assert_normal_form(mat)
                assert_normal_form(mat.transpose())

    def test_span_rows(self, cx, monkeypatch):
        built = []
        rank = linalg.rank
        monkeypatch.setattr(linalg, "rank", lambda m: built.append(m) or rank(m))
        theta = (P("1/2 x1 + x3 - 2/3 x5"), P("x2 + 3/4 x4"), P("1/3 x1*x3 + x6^2"), P("x2^3"))
        for k in range(5):
            lefschetz._hilbert.__wrapped__(cx("OCT"), theta, k)
        assert len(built) == 4
        for m in built:
            assert_normal_form(m)


# --- ×L in the symmetry-adapted bases of twin swaps ----------------------------


def decode(maps, q):
    """The exponent tuple of a code of ``maps``: its base-B digits over the
    vertices of Δ', ascending."""
    exps = []
    for v in maps.orbit_frame.complex.vertices:
        q, e = divmod(q, maps._base)
        if e:
            exps.append((v, e))
    assert q == 0
    return tuple(exps)


def layout(maps, k):
    """Each character filed in degree k mapped to its basis, each
    representative, as its exponent tuple, mapped to its position along
    the diagonal."""
    return {s: {decode(maps, q): i for q, i in basis.items()}
            for s, basis in maps._layout(k)[0].items()}


def split_blocks(maps, k):
    """The blocks of ``maps.matrix(k)`` as (character, matrix) pairs,
    after checking that every entry lies in one of them."""
    whole = maps.matrix(k)
    src, dst = layout(maps, k), layout(maps, k + 1)
    out = []
    row = col = 0
    for s in sorted(src.keys() | dst.keys()):
        a, b = len(src.get(s, ())), len(dst.get(s, ()))
        entries = {(i - row, j - col): v for (i, j), v in whole.entries.items()
                   if row <= i < row + b and col <= j < col + a}
        out.append((s, linalg.ExactMatrix(b, a, entries)))
        row, col = row + b, col + a
    assert (row, col) == (whole.rows, whole.cols)
    assert sum(block.nnz() for _, block in out) == whole.nnz()
    return out


def check_blocks(frame):
    """Block dimensions against the Hilbert function and block ranks
    against direct elimination, in every degree below the socle; without
    twins the one block is the direct matrix."""
    maps = IsotypicMaps(frame)
    L = frame.linear_form()
    for k in range(frame.socle_degree()):
        blocks = split_blocks(maps, k)
        direct = multiplication_matrix(frame, L, k)
        assert sum(b.cols for _, b in blocks) == hilbert_function(frame, k), (frame, k)
        assert sum(b.rows for _, b in blocks) == hilbert_function(frame, k + 1), (frame, k)
        if not maps.pairs:
            assert [s for s, _ in blocks] == [0] and blocks[0][1] == direct, (frame, k)
            continue
        assert sum(linalg.rank(b) for _, b in blocks) == linalg.rank(direct), (frame, k)


def cross_polytope(d):
    return from_facets([set(c) for c in product(*[(2 * i + 1, 2 * i + 2) for i in range(d)])])


K33 = from_facets([{a, b} for a in (1, 2, 3) for b in (4, 5, 6)])


@st.composite
def planted_twins(draw):
    """A random complex on 1..n with twins planted: its suspension (the
    join with two points), isolated points, or both."""
    n = draw(st.integers(1, 5))
    facet = st.frozensets(st.integers(1, n), min_size=1, max_size=3)
    base = draw(st.lists(facet, min_size=1, max_size=4))
    kind = draw(st.sampled_from(["suspension", "isolated", "both"]))
    facets = list(base)
    if kind != "isolated":
        facets = [f | {n + 1} for f in base] + [f | {n + 2} for f in base]
    if kind != "suspension":
        facets += [{n + 3}, {n + 4}, {n + 5}]
    complex_ = from_facets(facets)
    caps = draw(st.integers(2, 3) if complex_.dim <= 2 else st.just(2))
    return ArtinianFrame(complex_, caps)


class TestTwinPairs:
    def test_cross_polytope_pairs_every_antipode(self):
        frame = ArtinianFrame(cross_polytope(5), 3)
        assert twin_pairs(frame) == ((1, 2), (3, 4), (5, 6), (7, 8), (9, 10))

    def test_found_after_relabelling(self):
        rng = random.Random(5)
        ids = rng.sample(range(100), 10)
        relabel = dict(zip(range(1, 11), ids))
        frame = ArtinianFrame(
            from_facets([{relabel[v] for v in f} for f in cross_polytope(5).facets]), 4)
        pairs = twin_pairs(frame)
        assert len(pairs) == 5
        assert set(pairs) == {tuple(sorted((relabel[2 * i + 1], relabel[2 * i + 2])))
                              for i in range(5)}

    def test_k33_pairs_one_per_side(self):
        # twin classes {1, 2, 3} and {4, 5, 6}: consecutive members pair up
        assert twin_pairs(ArtinianFrame(K33, 2)) == ((1, 2), (4, 5))

    def test_caps_that_differ_split_a_pair(self, cx):
        frame = ArtinianFrame(cx("OCT"), [2, 3, 2, 2, 2, 2])
        assert twin_pairs(frame) == ((3, 4), (5, 6))
        assert twin_pairs(ArtinianFrame(cx("OCT"), 2)) == ((1, 2), (3, 4), (5, 6))

    def test_isolated_points_and_suspension_points(self):
        frame = ArtinianFrame(from_facets([{1, 3}, {2, 3}, {4}, {5}]), 2)
        assert twin_pairs(frame) == ((1, 2), (4, 5))

    @pytest.mark.parametrize("name", ["FAN4", "DUNCE", "BALL10", "C3", "EDGE"])
    def test_fixtures_without_twins(self, cx, name):
        assert twin_pairs(ArtinianFrame(cx(name), 2)) == ()


class TestIsotypicBlocks:
    """Symmetry-adapted ×L blocks against the direct ×L maps."""

    @pytest.mark.parametrize("name", fixtures.FIXTURE_NAMES)
    def test_fixtures_caps_2_to_5(self, cx, name):
        for caps in (2, 3, 4, 5):
            check_blocks(ArtinianFrame(cx(name), caps))

    @pytest.mark.parametrize("d, caps", [(4, 3), (4, 4), (5, 3), (5, 4)])
    def test_cross_polytopes(self, d, caps):
        check_blocks(ArtinianFrame(cross_polytope(d), caps))
        # the cached bases of XPOLY5 would slow every later full garbage
        # collection, and with it the timing gates of later tests
        _standard_monomials.cache_clear()

    def test_random_graphs(self):
        for frame in random_graph_frames(3141, (2, 3, 4)):
            check_blocks(frame)

    @pytest.mark.parametrize("caps", [2, 3, 4])
    def test_k33(self, caps):
        check_blocks(ArtinianFrame(K33, caps))

    @settings(max_examples=60, deadline=None)
    @given(planted_twins())
    @example(ArtinianFrame(from_facets([{1, 3}, {2, 3}]), 3))
    @example(ArtinianFrame(from_facets([{1}, {2}, {3}]), 3))
    def test_planted_twins(self, frame):
        assert twin_pairs(frame)
        check_blocks(frame)

    @pytest.mark.parametrize("caps", [[2, 3, 2, 2, 2, 2], [3, 3, 2, 3, 4, 4], [4, 3, 3, 3, 2, 2]])
    def test_positional_caps_differing_on_a_pair(self, cx, caps):
        check_blocks(ArtinianFrame(cx("OCT"), caps))

    def test_suspension_with_caps_differing_on_the_suspension_points(self, cx):
        cone = from_facets([f | {7} for f in cx("C4").facets] + [f | {8} for f in cx("C4").facets])
        frame = ArtinianFrame(cone, {1: 2, 2: 2, 3: 2, 4: 2, 7: 2, 8: 3})
        assert twin_pairs(frame) == ((1, 3), (2, 4))
        check_blocks(frame)

    def test_wlp_of_relabelled_complex(self, cx):
        rng = random.Random(11)
        for name in ("OCT", "CROSS4", "C4"):
            complex_ = cx(name)
            ids = rng.sample(range(200), len(complex_.vertices))
            relabel = dict(zip(complex_.vertices, ids))
            moved = from_facets([{relabel[v] for v in f} for f in complex_.facets])
            for caps in (2, 3):
                assert wlp_check(ArtinianFrame(moved, caps)) == wlp_check(
                    ArtinianFrame(complex_, caps)), (name, caps)

    def test_slp_reports_match_reference(self, cx):
        # TestSlp covers OCT at caps 2, C4, PATH3 at caps 4 and CROSS4
        frames = [ArtinianFrame(cx("OCT"), 3), ArtinianFrame(cx("PATH3"), 3),
                  ArtinianFrame(K33, 2), ArtinianFrame(K33, 3),
                  ArtinianFrame(cx("OCT"), [2, 3, 2, 2, 3, 3])]
        for frame in frames:
            assert IsotypicMaps(frame).pairs
            assert slp_check(frame) == slp_reference(frame), frame

    @settings(max_examples=25, deadline=None)
    @given(planted_twins())
    def test_slp_reports_match_reference_with_planted_twins(self, frame):
        assert slp_check(frame) == slp_reference(frame)


def orbit_sums(maps, k):
    """The symmetry-adapted basis of degree k as explicit columns over the
    standard monomials: for the representative r at each position of block
    S, the signed orbit sum over all of G, each swap set h weighted by
    (-1)^|h & S|."""
    monos = standard_basis(maps.frame, k)
    index = {m.exps: i for i, m in enumerate(monos)}
    entries = {}
    for s, basis in layout(maps, k).items():
        for r, col in basis.items():
            for g in range(1 << len(maps.pairs)):
                e = dict(r)
                for bit, (a, b) in enumerate(maps.pairs):
                    if g >> bit & 1:
                        e[a], e[b] = e.get(b, 0), e.get(a, 0)
                i = index[tuple(sorted((v, x) for v, x in e.items() if x))]
                sign = -1 if bin(g & s).count("1") % 2 else 1
                entries[i, col] = entries.get((i, col), 0) + sign
    return linalg.ExactMatrix(len(monos), len(monos), entries)


def check_change_of_basis(frame):
    """×L times the orbit sums of degree k equals the orbit sums of degree
    k + 1 times the block-diagonal matrix, and the orbit sums are bases."""
    maps = IsotypicMaps(frame)
    L = frame.linear_form()
    for k in range(frame.socle_degree() + 1):
        sums = orbit_sums(maps, k)
        assert linalg.rank(sums) == sums.rows, (frame, k)
        if k < frame.socle_degree():
            blocks = maps.matrix(k)
            assert set(blocks.entries.values()) <= {1, 2}, (frame, k)
            direct = multiplication_matrix(frame, L, k)
            assert direct @ sums == orbit_sums(maps, k + 1) @ blocks, (frame, k)


class TestSymmetryAdaptedBasis:
    """The blocks are ×L written in explicit signed orbit sums."""

    @pytest.mark.parametrize("name, caps", [
        ("OCT", 2), ("OCT", 3), ("C4", 2), ("C4", 3), ("PATH3", 3), ("CROSS4", 2),
        ("OCT", [2, 3, 2, 2, 3, 3]), ("FAN4", 2),
    ])
    def test_fixtures(self, cx, name, caps):
        check_change_of_basis(ArtinianFrame(cx(name), caps))

    @pytest.mark.parametrize("caps", [2, 3])
    def test_k33(self, caps):
        check_change_of_basis(ArtinianFrame(K33, caps))

    @settings(max_examples=40, deadline=None)
    @given(planted_twins())
    def test_planted_twins(self, frame):
        check_change_of_basis(frame)


# --- each character's block against its graded Jordan type ---------------------


def relabelled(frame, rng):
    """The frame with its vertices renamed at random, caps carried along,
    so the twin pairs, and with them the character bits, are reordered."""
    vs = frame.complex.vertices
    name = dict(zip(vs, rng.sample(range(1, 400), len(vs))))
    moved = from_facets([{name[v] for v in f} for f in frame.complex.facets])
    return ArtinianFrame(moved, {name[v]: a for v, a in frame.caps})


def tensor_strings(strings, factor):
    """Strings (start, length) of ×L on a tensor product, by the graded
    Clebsch–Gordan rule."""
    out = Counter()
    for (s, m), c in strings.items():
        for u, n in factor:
            for i in range(min(m, n)):
                out[s + u + i, m + n - 1 - 2 * i] += c
    return out


def character_strings(frame, s):
    """The strings of ×L on block S when the frame is a simplex C joined
    with suspensions, or None.  Block S is the tensor product of one part
    per factor: K[x]/(x^a) for a vertex of C, and K[x, y]/(xy, x^a, y^b)
    for a pair, whole unless the pair is a twin pair (a = b).  Its swap
    splits it into the part 1, x^i + y^i, fixed (the string (0, a)), and
    the part x^i - y^i, negated (the string (1, a - 1)); S takes the
    negated part of the pairs it holds."""
    cx = frame.complex
    cone = frozenset.intersection(*cx.facets)
    apart = {v: set(cx.vertices).difference(*(f for f in cx.facets if v in f))
             for v in cx.vertices if v not in cone}
    if any(len(w) != 1 for w in apart.values()):
        return None
    pairs = sorted({tuple(sorted((v, *w))) for v, w in apart.items()})
    if {cone | set(c) for c in product(*pairs)} != set(cx.facets):
        return None
    caps = frame.cap_map
    bit = {p: b for b, p in enumerate(twin_pairs(frame))}
    strings = Counter({(0, 1): 1})
    for v in cone:
        strings = tensor_strings(strings, [(0, caps[v])])
    for p in pairs:
        a, b = sorted(caps[v] for v in p)
        if p not in bit:
            factor = [(0, b), (1, a - 1)]
        else:
            factor = [(1, a - 1)] if s >> bit[p] & 1 else [(0, a)]
        strings = tensor_strings(strings, factor)
    return strings


def check_characters(frame):
    """Each block's shape and rank in every degree below the socle against
    its character's strings on a simplex joined with suspensions, and the
    blocks' ranks together against direct elimination on other frames.
    Returns each character's ranks, degree by degree."""
    maps = IsotypicMaps(frame)
    chars = range(1 << len(maps.pairs))
    types = {s: character_strings(frame, s) for s in chars}
    if types[0] is None and not maps.pairs:
        return {}  # one character, and check_blocks pins its block to the direct map
    L = frame.linear_form()
    ranks = {s: [] for s in chars}
    for k in range(frame.socle_degree()):
        blocks = dict(split_blocks(maps, k))
        for s in chars:
            block = blocks.get(s, linalg.ExactMatrix(0, 0, {}))
            ranks[s].append(linalg.rank(block))
            if types[s] is not None:
                shape = tuple(lefschetz._covering(types[s], d, 0) for d in (k + 1, k))
                assert (block.rows, block.cols) == shape, (frame, k, s)
                assert ranks[s][-1] == lefschetz._covering(types[s], k, 1), (frame, k, s)
        if types[0] is None:
            direct = linalg.rank(multiplication_matrix(frame, L, k))
            assert sum(r[-1] for r in ranks.values()) == direct, (frame, k)
    return ranks


class TestCharacterOrbits:
    """Each character's block against the graded Jordan type of its part
    of the algebra, on relabelled frames.  Characters that a permutation
    of equal-cap pairs exchanges get equal types, so their blocks have
    equal ranks."""

    @pytest.mark.parametrize("name", fixtures.FIXTURE_NAMES)
    def test_fixtures_caps_2_to_5(self, cx, name):
        rng = random.Random(name)
        for caps in (2, 3, 4, 5):
            frame = relabelled(ArtinianFrame(cx(name), caps), rng)
            assert (character_strings(frame, 0) is None) == (name in ("FAN4", "DUNCE", "BALL10",
                                                                      "C3"))
            check_characters(frame)

    @pytest.mark.parametrize("d, caps", [(4, 3), (4, 4), (5, 3), (5, 4)])
    def test_cross_polytopes(self, d, caps):
        frame = relabelled(ArtinianFrame(cross_polytope(d), caps), random.Random(d * caps))
        ranks = check_characters(frame)
        # every pair permutes with every other: one rank sequence per popcount
        by_popcount = {}
        for s, seq in ranks.items():
            by_popcount.setdefault(bin(s).count("1"), set()).add(tuple(seq))
        assert all(len(seqs) == 1 for seqs in by_popcount.values())
        assert len(by_popcount) == d + 1
        # see TestIsotypicBlocks.test_cross_polytopes
        _standard_monomials.cache_clear()

    def test_random_graphs(self):
        for frame in random_graph_frames(2718, (2, 3, 4)):
            check_characters(frame)

    @settings(max_examples=60, deadline=None)
    @given(planted_twins(), st.randoms(use_true_random=False))
    def test_planted_twins(self, frame, rng):
        check_characters(relabelled(frame, rng))

    def test_suspension_pair_and_isolated_pair_do_not_permute(self):
        frame = ArtinianFrame(from_facets([{1, 3}, {2, 3}, {4}, {5}]), 2)
        assert IsotypicMaps(frame).pairs == ((1, 2), (4, 5))
        assert character_strings(frame, 0) is None
        ranks = check_characters(frame)
        # x1 - x2 goes on to x1 x3 - x2 x3, x4 - x5 to nothing
        assert ranks == {0b00: [1, 1], 0b01: [0, 1], 0b10: [0, 0], 0b11: [0, 0]}

    def test_caps_that_differ_between_pairs(self, cx):
        check_characters(ArtinianFrame(cx("CROSS4"), [2, 2, 3, 3, 4, 4, 5, 5]))
        # pair (3, 4) at cap 3 permutes with none of the pairs at cap 2
        ranks = check_characters(ArtinianFrame(cx("CROSS4"), [2, 2, 3, 3, 2, 2, 2, 2]))
        assert ranks[0b0001] == ranks[0b0100] == ranks[0b1000] != ranks[0b0010]
        assert ranks[0b0011] == ranks[0b0110] == ranks[0b1010] != ranks[0b0101]
        assert ranks[0b0101] == ranks[0b1001] == ranks[0b1100]
        assert ranks[0b1011] == ranks[0b0111] == ranks[0b1110]

    def test_wlp_ranks_match_direct(self, cx):
        rng = random.Random(8)
        frames = [relabelled(ArtinianFrame(cx(name), caps), rng)
                  for name in ("OCT", "CROSS4", "C4", "PATH3") for caps in (2, 3, 4)]
        frames += [ArtinianFrame(cx("CROSS4"), [2, 2, 3, 3, 2, 2, 2, 2]),
                   ArtinianFrame(cx("OCT"), [2, 3, 2, 2, 3, 3]), ArtinianFrame(K33, 3)]
        for frame in frames:
            report = wlp_check(frame)
            direct = direct_ranks(frame, frame.linear_form(), range(report.socle_degree))
            assert [p.rank for p in report.per_degree] == direct, frame

    def test_slp_reports_match_reference(self, cx):
        rng = random.Random(9)
        frames = [relabelled(ArtinianFrame(cx("OCT"), 3), rng),
                  relabelled(ArtinianFrame(cx("CROSS4"), 2), rng),
                  relabelled(ArtinianFrame(cx("C4"), 3), rng),
                  ArtinianFrame(cx("OCT"), [2, 2, 3, 3, 2, 2]),
                  ArtinianFrame(cx("OCT"), [2, 2, 3, 3, 4, 4])]
        for frame in frames:
            assert slp_check(frame) == slp_reference(frame), frame

    @settings(max_examples=25, deadline=None)
    @given(planted_twins(), st.randoms(use_true_random=False))
    def test_slp_reports_match_reference_with_planted_twins(self, frame, rng):
        frame = relabelled(frame, rng)
        assert slp_check(frame) == slp_reference(frame)


class TestNoMonomials:
    """``wlp_check`` and ``slp_check`` stay on exponent tuples."""

    def test_wlp_and_slp_build_no_monomial(self, cx, monkeypatch):
        frames = [ArtinianFrame(cx("OCT"), 3), ArtinianFrame(cx("BALL10"), 2),
                  ArtinianFrame(cx("PATH3"), 3), ArtinianFrame(K33, 3)]

        def refuse(*args, **kwargs):
            raise AssertionError("a Monomial was built")

        _standard_monomials.cache_clear()
        with monkeypatch.context() as patch:
            patch.setattr(Monomial, "__init__", refuse)
            patch.setattr(Monomial, "_trusted", classmethod(refuse))
            with pytest.raises(AssertionError, match="Monomial"):
                standard_basis(frames[0], 1)
            reports = [(wlp_check(frame), slp_check(frame)) for frame in frames]
        for frame, (wlp, slp) in zip(frames, reports):
            direct = direct_ranks(frame, frame.linear_form(), range(wlp.socle_degree))
            assert [p.rank for p in wlp.per_degree] == direct, frame
            assert slp == slp_reference(frame), frame


# --- orbit representatives listed on Δ restricted to one twin per pair ----------


class FilteredMaps(IsotypicMaps):
    """The oracle of ``IsotypicMaps``' layouts and matrices: the standard
    monomials of the whole frame, walked pair by pair to keep those with
    e_a >= e_b on every pair, and each product x_v r, over the neighbours
    v of r in Δ, mapped to its orbit representative, adding 1 per
    product."""

    def __init__(self, frame):
        super().__init__(frame)
        closed = {v: {v} for v in frame.complex.vertices}
        for f in frame.complex.facets:
            for v in f:
                closed[v].update(f)
        self._neighbours = {v: tuple(((w, 1),) for w in sorted(c)) for v, c in closed.items()}
        self._neighbours[None] = tuple(((w, 1),) for w in frame.complex.vertices)

    def _representative(self, exps):
        e = dict(exps)
        for a, b in self.pairs:
            e[a], e[b] = max(e.get(a, 0), e.get(b, 0)), min(e.get(a, 0), e.get(b, 0))
        return tuple(sorted((v, x) for v, x in e.items() if x))

    def _layout(self, k):
        bases = {}
        for m in standard_monomials(self.frame.complex, k, self.frame.caps):
            if self._representative(m) != m:
                continue
            e = dict(m)
            free = sum(1 << bit for bit, (a, b) in enumerate(self.pairs)
                       if e.get(a, 0) > e.get(b, 0))
            for s in range(free + 1):
                if s & free == s:
                    bases.setdefault(s, []).append(m)
        out, length = {}, 0
        for s in sorted(bases):
            out[s] = dict(zip(bases[s], range(length, length + len(bases[s]))))
            length += len(bases[s])
        return out, length

    def matrix(self, k):
        (src, width), (dst, height) = self._layout(k), self._layout(k + 1)
        reps = dst[0] if dst else {}
        entries = {}
        for s, cols in src.items():
            for r, j in cols.items():
                for x in self._neighbours[r[0][0] if r else None]:
                    q = self._representative(_times(r, x))
                    if q in reps:
                        i = dst[s][q]
                        entries[i, j] = entries.get((i, j), 0) + 1
        return linalg.ExactMatrix(height, width, entries)


def check_against_filter(frame):
    """Layouts and matrices, entries in the order ``linalg`` reads them,
    equal the oracle's in every degree up to the socle."""
    maps, oracle = IsotypicMaps(frame), FilteredMaps(frame)
    top = frame.socle_degree()
    for k in range(top + 1):
        assert layout(maps, k) == oracle._layout(k)[0], (frame, k)
        assert maps._layout(k)[1] == oracle._layout(k)[1], (frame, k)
    for k in range(top):
        ours, theirs = maps.matrix(k), oracle.matrix(k)
        assert ours == theirs, (frame, k)
        assert list(ours.entries.items()) == list(theirs.entries.items()), (frame, k)


@st.composite
def planted_twins_mixed_caps(draw):
    """``planted_twins`` with a cap per vertex, equal on each of its twin
    pairs or not, so some pairs stay twins and others split."""
    frame = draw(planted_twins())
    top = 4 if frame.complex.dim <= 1 else 3
    caps = {v: draw(st.integers(2, top)) for v in frame.complex.vertices}
    for a, b in twin_pairs(frame):
        if draw(st.booleans()):
            caps[b] = caps[a]
    return ArtinianFrame(frame.complex, caps)


# two isolated twins leave one empty facet {b} - B behind, which Δ' drops
ISOLATED_PAIRS = [ArtinianFrame(from_facets([{1}, {2}]), 3),
                  ArtinianFrame(from_facets([{1}, {2}, {3}, {4}]), {1: 2, 2: 2, 3: 4, 4: 4}),
                  ArtinianFrame(from_facets([{1, 2}, {3}, {4}]), 3)]


class TestOrbitFrame:
    """Representatives listed as the standard monomials of Δ' = Δ|V∖B,
    against the filter over every standard monomial of Δ."""

    @pytest.mark.parametrize("name", fixtures.FIXTURE_NAMES)
    def test_relabelled_fixtures_caps_2_to_5(self, cx, name):
        rng = random.Random(name)
        for caps in (2, 3, 4, 5):
            check_against_filter(relabelled(ArtinianFrame(cx(name), caps), rng))

    @pytest.mark.parametrize("d, caps", [(4, 3), (4, 4), (5, 3), (5, 4)])
    def test_cross_polytopes(self, d, caps):
        check_against_filter(ArtinianFrame(cross_polytope(d), caps))
        # see TestIsotypicBlocks.test_cross_polytopes
        _standard_monomials.cache_clear()

    @settings(max_examples=80, deadline=None)
    @given(planted_twins_mixed_caps())
    def test_planted_twins_with_mixed_caps(self, frame):
        check_against_filter(frame)

    @pytest.mark.parametrize("name", fixtures.FIXTURE_NAMES)
    def test_sparse_ids_and_mixed_caps(self, cx, name):
        rng = random.Random(name)
        complex_ = cx(name)
        rename = dict(zip(complex_.vertices,
                          rng.sample(range(1 << 20, 1 << 40), len(complex_.vertices))))
        moved = from_facets([{rename[v] for v in f} for f in complex_.facets])
        for _ in range(3):
            check_against_filter(ArtinianFrame(moved, {v: rng.randint(2, 4) for v in moved.vertices}))

    def test_c4_pairs_every_vertex(self, cx):
        for caps in (2, 3, 4):
            frame = ArtinianFrame(cx("C4"), caps)
            assert twin_pairs(frame) == ((1, 3), (2, 4))
            assert IsotypicMaps(frame).orbit_frame.complex.facets == (frozenset({1, 2}),)
            check_against_filter(frame)

    def test_isolated_pairs(self):
        for frame in ISOLATED_PAIRS:
            reduced = IsotypicMaps(frame).orbit_frame.complex
            assert frozenset() not in reduced.facets and len(reduced.facets) == len(
                frame.complex.facets) - len(twin_pairs(frame))
            check_against_filter(frame)

    def test_orbits_are_counted(self, cx):
        frames = [ArtinianFrame(cx("OCT"), 3), ArtinianFrame(cross_polytope(4), 3),
                  ArtinianFrame(K33, 3), *ISOLATED_PAIRS]
        for frame in frames:
            maps = IsotypicMaps(frame)
            counts = hilbert_series(maps.orbit_frame)
            assert counts == tuple(len(layout(maps, k)[0])
                                   for k in range(frame.socle_degree() + 1)), frame

    def test_no_second_twin_is_enumerated(self, cx, monkeypatch):
        frames = [ArtinianFrame(cx("OCT"), 3), ArtinianFrame(cx("C4"), 3),
                  ArtinianFrame(cross_polytope(4), 3), ArtinianFrame(K33, 2), *ISOLATED_PAIRS]
        seen = []
        real = lefschetz.standard_monomials

        def spy(complex_, k, caps=(), filters=()):
            seen.append((complex_, caps))
            return real(complex_, k, caps, filters)

        for frame in frames:
            second = {b for _, b in twin_pairs(frame)}
            seen.clear()
            with monkeypatch.context() as patch:
                patch.setattr(lefschetz, "standard_monomials", spy)
                # suspensions take no layout in wlp_check and slp_check,
                # so every map is asked for here as well
                maps = IsotypicMaps(frame)
                for k in range(frame.socle_degree()):
                    maps.matrix(k)
                wlp, slp = wlp_check(frame), slp_check(frame)
            assert seen, frame
            for complex_, caps in seen:
                assert not second & set(complex_.vertices), frame
                assert not second & {v for v, _ in caps}, frame
            assert slp == slp_reference(frame), frame
            direct = direct_ranks(frame, frame.linear_form(), range(wlp.socle_degree))
            assert [p.rank for p in wlp.per_degree] == direct, frame


def recorded(frame):
    """``wlp_check(frame)``, the degrees whose layouts it built and the
    set of degrees whose ×L it eliminated; no layout is built twice.  Maps
    built on a link's frame, for its Jordan type, are not the frame's."""
    built, eliminated = [], set()
    real_layout, real_matrix = IsotypicMaps._layout, IsotypicMaps.matrix

    def recording_layout(self, k):
        if self.frame == frame:
            built.append(k)
        return real_layout(self, k)

    def recording_matrix(self, k):
        if self.frame == frame:
            eliminated.add(k)
        return real_matrix(self, k)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(IsotypicMaps, "_layout", recording_layout)
        patch.setattr(IsotypicMaps, "matrix", recording_matrix)
        report = wlp_check(frame)
    assert len(built) == len(set(built)), (frame, built)
    return report, sorted(built), eliminated


class TestOneLayoutPerDegree:
    """``wlp_check`` builds each layout once, whatever the order of its
    walk."""

    def test_cross5_caps4(self):
        # a simplex joined with suspensions: every rank is read from the
        # Jordan type, so no layout is built and nothing is eliminated
        frame = ArtinianFrame(cross_polytope(5), 4)
        report, built, eliminated = recorded(frame)
        assert built == [] and eliminated == set()
        assert [p.k for p in report.failures()] == [8, 9]

    @pytest.mark.parametrize("d, caps, first", [(4, 3, 3), (4, 4, 5)])
    def test_cross4(self, d, caps, first):
        frame = ArtinianFrame(cross_polytope(d), caps)
        report, built, eliminated = recorded(frame)
        assert built == [] and eliminated == set()
        # ×L is injective up to degree first and fails in the two above it
        assert [p.k for p in report.failures()] == [first + 1, first + 2]
        direct = direct_ranks(frame, frame.linear_form(), range(report.socle_degree))
        assert [p.rank for p in report.per_degree] == direct

    def test_suspended_c3_caps4(self, cx):
        # C3 * S^0 is no simplex joined with suspensions, and its one twin
        # pair is the suspension; the peel certifies that 4 is injective
        # (45 -> 54), leaves 5 open, which fails surjectivity (54 -> 51,
        # rank 50), and certifies that 6 is onto
        frame = ArtinianFrame(suspension(cx("C3")), 4)
        report, built, eliminated = recorded(frame)
        assert twin_pairs(frame) == ((4, 5),)
        assert built == [5, 6]
        assert eliminated == {5}
        assert [(p.k, p.rank, p.failure_mode) for p in report.failures()] == [
            (5, 50, "surjectivity")]
        assert report == check_direct(frame)

    @pytest.mark.parametrize("caps, first", [(3, 1), (4, 2), (5, 3)])
    def test_k33(self, caps, first):
        # the peel reads every degree but the one that fails injectivity
        frame = ArtinianFrame(K33, caps)
        report, built, eliminated = recorded(frame)
        assert built == [first + 1, first + 2]
        assert eliminated == {first + 1}
        assert [p.k for p in report.failures()] == [first + 1]
        direct = direct_ranks(frame, frame.linear_form(), range(report.socle_degree))
        assert [p.rank for p in report.per_degree] == direct

    def test_two_stretches(self):
        # the peel takes the point 5 off, then K4's vertices by their
        # links' Jordan types; with the point 5 at cap 2 the dims are 1, 5,
        # 10, 16, 18, 12, 6: 3 is injective and 4 the first onto map; 2 is
        # decided, x5 is socle in degree 1, so ×L fails injectivity there,
        # and the peel reads 0, 1 and 4, so only 3 is eliminated
        assert len(lefschetz._peeled_strings(K4_AND_POINT)) == 4
        report, built, eliminated = recorded(K4_AND_POINT)
        assert eliminated == {3}
        assert built == [3, 4]
        assert [(p.k, p.rank) for p in report.failures()] == [(1, 4)]
        assert report == check_direct(K4_AND_POINT)

    @pytest.mark.parametrize("name", fixtures.FIXTURE_NAMES)
    def test_relabelled_fixtures_caps_2_to_5(self, cx, name):
        # BALL10 at caps 3 and 5, DUNCE at caps 5 and C3 at caps 3 and 5
        # walk down through a failure and back up through its layout
        rng = random.Random(name)
        for caps in (2, 3, 4, 5):
            recorded(relabelled(ArtinianFrame(cx(name), caps), rng))

    @settings(max_examples=150, deadline=None)
    @given(capped_frames())
    @example(EDGE_AND_POINT)
    @example(TWO_FAILURES)
    def test_capped_frames(self, frame):
        recorded(frame)


# --- simplices joined with suspensions: ranks from the graded Jordan type -------


def slp_composed(frame):
    """``slp_check`` with every rank eliminated from the direct ×L maps
    composed (``_power_maps``)."""
    dims = hilbert_series(frame)
    per = []
    for i, j, m in _power_maps(frame):
        r = linalg.rank(m)
        per.append((j, i, dims[i], dims[i + j], r, r == min(dims[i], dims[i + j])))
    per.sort()
    return SlpReport(all(p[5] for p in per), frame.socle_degree(), tuple(per))


def suspension_strings(frame):
    """``lefschetz._suspension_strings`` on the frame's facets and caps."""
    return lefschetz._suspension_strings(frame.complex.facets, frame.cap_map)


def frame_dimension(caps, cone):
    """dim A of C * {a_1, b_1} * ... : a per cone vertex, a + b - 1 per
    pair; caps lists the pairs' caps first, then the cone's."""
    total = 1
    for i in range(0, len(caps) - cone, 2):
        total *= caps[i] + caps[i + 1] - 1
    for a in caps[len(caps) - cone:]:
        total *= a
    return total


@st.composite
def cones_over_cross_polytopes(draw, budget=1500):
    """C * XPOLY_d, relabelled: d from 1 to 5, C of 0 to 2 vertices, and a
    cap from 2 to 5 per vertex, the two vertices of a pair free to
    differ.  A cap is lowered toward 2 where it would take dim A past the
    budget, so the direct ranks stay cheap."""
    d = draw(st.integers(1, 5))
    cone = draw(st.integers(0, 2))
    n = 2 * d + cone
    caps = [2] * n
    for v in range(n):
        caps[v] = draw(st.integers(2, 5))
        while caps[v] > 2 and frame_dimension(caps, cone) > budget:
            caps[v] -= 1
    facets = [f | set(range(2 * d + 1, n + 1)) for f in cross_polytope(d).facets]
    ids = draw(st.lists(st.integers(1, 200), min_size=n, max_size=n, unique=True))
    name = dict(zip(range(1, n + 1), ids))
    complex_ = from_facets([{name[v] for v in f} for f in facets])
    return ArtinianFrame(complex_, {name[v]: caps[v - 1] for v in range(1, n + 1)})


# a pair at caps 2 and 4, with a cone vertex at cap 3
MIXED_PAIR_CONE = ArtinianFrame(from_facets([{1, 3}, {2, 3}]), {1: 2, 2: 4, 3: 3})
# every transversal of the pairs {1, 2}, {3, 4}, {5, 6}, but not pure:
# without its size test the detection would take it for the octahedron
NON_PURE_TRANSVERSALS = from_facets(
    [{1, 3}, {1, 4}, {1, 5}, {1, 6}, {2, 3, 5}, {2, 3, 6}, {2, 4, 5}, {2, 4, 6}])
STAR = from_facets([{1, 2}, {1, 3}, {1, 4}, {1, 5}])


class TestSuspensions:
    """Ranks read from the graded Jordan type of a simplex joined with
    suspensions, against direct elimination."""

    @settings(max_examples=80, deadline=None)
    @given(cones_over_cross_polytopes())
    @example(MIXED_PAIR_CONE)
    @example(ArtinianFrame(cross_polytope(2), {1: 2, 2: 5, 3: 3, 4: 4}))
    def test_wlp_ranks_match_direct(self, frame):
        strings = suspension_strings(frame)
        assert strings is not None
        dims = hilbert_series(frame)
        assert [lefschetz._covering(strings, k, 0) for k in range(len(dims))] == list(dims)
        check_direct(frame)

    @settings(max_examples=40, deadline=None)
    @given(cones_over_cross_polytopes(budget=300))
    @example(MIXED_PAIR_CONE)
    def test_slp_reports_match_composed_maps(self, frame):
        assert slp_check(frame) == slp_composed(frame)

    def test_slp_reports_match_reference(self, cx):
        frames = [MIXED_PAIR_CONE, ArtinianFrame(cx("OCT"), [2, 3, 2, 2, 4, 3]),
                  ArtinianFrame(cx("PATH3"), [3, 2, 4]), ArtinianFrame(cx("EDGE"), [2, 4]),
                  ArtinianFrame(cx("C4"), [2, 3, 4, 5])]
        for frame in frames:
            assert suspension_strings(frame) is not None
            assert slp_check(frame) == slp_reference(frame), frame

    @pytest.mark.parametrize("name", ["OCT", "CROSS4", "C4", "PATH3", "EDGE"])
    def test_fixtures_build_no_layout(self, cx, name):
        for caps in (2, 3, 4, 5):
            report, built, eliminated = recorded(ArtinianFrame(cx(name), caps))
            assert built == [] and eliminated == set(), (name, caps)

    @pytest.mark.parametrize("caps", [2, 3, 4])
    def test_non_pure_transversals_take_the_walk(self, caps):
        frame = ArtinianFrame(NON_PURE_TRANSVERSALS, caps)
        assert suspension_strings(frame) is None
        report = check_direct(frame)
        if caps == 3:
            assert [p.rank for p in report.per_degree] == [1, 6, 18, 23, 12, 4]

    def test_other_frames_take_the_walk(self, cx):
        # the walk eliminates what the peel leaves open: nothing on the
        # star K1,4, whose leaves peel; on C3, C3 * S^0 and K33 the degree
        # whose connecting map the peel cannot rule out, and on BALL10 *
        # S^0 the degree that fails injectivity
        expected = [(STAR, set()), (cx("C3"), {1}), (suspension(cx("C3")), {2}),
                    (K33, {1}), (suspension(cx("BALL10")), {3})]
        for complex_, open_ in expected:
            frame = ArtinianFrame(complex_, 2)
            assert suspension_strings(frame) is None, complex_
            report, built, eliminated = recorded(frame)
            assert eliminated == open_, complex_
            assert report == check_direct(frame)


# --- the vertex peel: a lower bound on every rank -------------------------------


def check_peel(frame, ranks):
    """The peel (``_peeled_strings``) against exact ranks, a dict (j, i) ->
    rank of ×L^j from degree i: its strings count every dimension, their
    sum never exceeds a rank, it is one level exactly on a simplex joined
    with suspensions, every rank ``_certified`` reads from it is the
    rank, and it reads every sum that reaches full rank.  Returns the
    peel."""
    peeled = lefschetz._peeled_strings(frame)
    if peeled is not None:
        strings = sum(peeled, Counter())
        dims = hilbert_series(frame)
        assert tuple(lefschetz._covering(strings, k, 0) for k in range(len(dims))) == dims, frame
        exact = len(peeled) == 1
        assert exact == (suspension_strings(frame) is not None), frame
        for (j, i), r in ranks.items():
            bound = lefschetz._covering(strings, i, j)
            assert bound <= r, (frame, j, i)
            assert bound == r or not exact, (frame, j, i)
            assert lefschetz._certified(peeled, i, j) in (None, r), (frame, j, i)
            # a full-rank sum meets the snake condition at every level
            if bound == min(dims[i], dims[i + j]):
                assert lefschetz._certified(peeled, i, j) == bound, (frame, j, i)
    return peeled


def wlp_ranks(frame):
    """``check_direct`` as a dict (1, k) -> rank of ×L from degree k."""
    return {(1, p.k): p.rank for p in check_direct(frame).per_degree}


def slp_ranks(frame, reference):
    """slp_check against a reference report, as a dict (j, i) -> rank."""
    report = reference(frame)
    assert slp_check(frame) == report, frame
    return {(j, i): r for j, i, _, _, r, _ in report.per_pair}


def mixed_cap_graph_frames(seed, count, top=4):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(3, 7)
        g = random_connected_graph(rng, n, rng.randint(n - 1, n * (n - 1) // 2))
        yield ArtinianFrame(g, {v: rng.randint(2, top) for v in g.vertices})


def suspension(complex_):
    top = max(complex_.vertices)
    return from_facets([f | {top + 1} for f in complex_.facets]
                       + [f | {top + 2} for f in complex_.facets])


# 1 - 2 - 3 - 4: no join, both ends peel
PATH4 = from_facets([{1, 2}, {2, 3}, {3, 4}])


class TestPeel:
    """The vertex peel's strings against exact ranks."""

    @pytest.mark.parametrize("name", fixtures.FIXTURE_NAMES)
    def test_fixtures_caps_2_to_5(self, cx, name):
        # the ranks do not depend on the labels, but the peel order does
        rng = random.Random(name)
        for caps in (2, 3, 4, 5):
            frame = ArtinianFrame(cx(name), caps)
            ranks = wlp_ranks(frame)
            check_peel(frame, ranks)
            moved = relabelled(frame, rng)
            check_peel(moved, ranks)
            assert {(1, p.k): p.rank for p in wlp_check(moved).per_degree} == ranks

    @pytest.mark.parametrize("name", fixtures.FIXTURE_NAMES)
    def test_fixture_powers(self, cx, name):
        rng = random.Random(name)
        for frame in fixture_frames(cx, [name]):
            ranks = slp_ranks(frame, slp_reference)
            check_peel(frame, ranks)
            check_peel(relabelled(frame, rng), ranks)
        caps = 3 if name in SLOW_AT_CAPS_3 else 4
        frame = ArtinianFrame(cx(name), caps)
        ranks = slp_ranks(frame, slp_composed)
        check_peel(frame, ranks)
        check_peel(relabelled(frame, rng), ranks)

    @settings(max_examples=150, deadline=None)
    @given(capped_frames())
    @example(EDGE_AND_POINT)
    @example(TWO_FAILURES)
    @example(K4_AND_POINT)
    def test_capped_frames(self, frame):
        check_peel(frame, slp_ranks(frame, slp_composed))
        check_peel(frame, wlp_ranks(frame))

    def test_mixed_cap_random_graphs(self):
        rng = random.Random(1912)
        for frame in mixed_cap_graph_frames(1912, 40):
            ranks = slp_ranks(frame, slp_composed)
            check_peel(frame, ranks)
            check_peel(relabelled(frame, rng), ranks)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_cross_polytopes(self, d):
        for caps in (2, 3, 4) if d < 5 else (2, 3):
            frame = ArtinianFrame(cross_polytope(d), caps)
            assert len(check_peel(frame, wlp_ranks(frame))) == 1
            if d < 4 or caps == 2:
                check_peel(frame, slp_ranks(frame, slp_reference))

    def test_suspended_ball10(self, cx):
        frame = ArtinianFrame(suspension(cx("BALL10")), 2)
        assert len(check_peel(frame, slp_ranks(frame, slp_composed))) > 1
        frame = ArtinianFrame(suspension(cx("BALL10")), 3)
        check_peel(frame, wlp_ranks(frame))

    def test_path4_strings(self):
        # peel 1 (one facet, id 1): its link {2} gives (0, 2), and the star
        # piece is that times (1, a_1 - 1) = (1, 1): one string (1, 2).
        # The deletion 2 - 3 - 4 = {3} * {2, 4}, the leaf: (0, 2) times
        # (0, 2) and (1, 1) gives (0, 3), (1, 1) and (1, 2)
        star, leaf = lefschetz._peeled_strings(ArtinianFrame(PATH4, 2))
        assert star == Counter({(1, 2): 1})
        assert leaf == Counter({(0, 3): 1, (1, 1): 1, (1, 2): 1})

    def test_no_join_link(self, cx):
        # no link of DUNCE, K4 or K33 is a simplex joined with suspensions;
        # the peel takes their links' Jordan types and still counts every
        # dimension
        frames = [ArtinianFrame(complex_, caps)
                  for complex_ in (cx("DUNCE"), K4, K33, suspension(K4)) for caps in (2, 3)]
        for frame in [*frames, K4_AND_POINT]:
            peeled = lefschetz._peeled_strings(frame)
            assert len(peeled) > 1, frame
            strings = sum(peeled, Counter())
            dims = hilbert_series(frame)
            assert tuple(lefschetz._covering(strings, k, 0) for k in range(len(dims))) == dims

    def test_joins_are_exact(self, cx):
        for name in ("OCT", "CROSS4", "C4", "PATH3", "EDGE"):
            assert len(lefschetz._peeled_strings(ArtinianFrame(cx(name), 3))) == 1, name
        for name in ("FAN4", "BALL10", "C3"):
            assert len(lefschetz._peeled_strings(ArtinianFrame(cx(name), 3))) > 1, name


def report_strings(report):
    """The strings of ×L read from an ``SlpReport``'s ranks: n(i, l) =
    r(l - 1, i) - r(l, i) - r(l, i - 1) + r(l + 1, i - 1), r(j, i) the
    rank of ×L^j from degree i, r(0, i) = dim A_i, r = 0 out of range."""
    r = {}
    for j, i, a, b, rank, _ in report.per_pair:
        r[j, i], r[0, i], r[0, i + j] = rank, a, b

    def at(j, i):
        return r.get((j, i), 0)

    top = report.socle_degree
    counts = {(i, n): at(n - 1, i) - at(n, i) - at(n, i - 1) + at(n + 1, i - 1)
              for i in range(top + 1) for n in range(1, top - i + 2)}
    return Counter({string: c for string, c in counts.items() if c})


def check_strings(frame):
    """The strings read from ``slp_check(frame)`` are counted non-negative
    times, cover every dimension (``hilbert_series``) and are the Jordan
    type ``_jordan_type`` gives the frame."""
    strings = report_strings(slp_check(frame))
    assert all(c > 0 for c in strings.values()), (frame, strings)
    dims = hilbert_series(frame)
    assert tuple(lefschetz._covering(strings, k, 0) for k in range(len(dims))) == dims, frame
    assert lefschetz._jordan_type(frame.complex.facets, frame.cap_map, {}) == strings, frame


class TestJordanType:
    """Link Jordan types by recursion: the strings the checks read against
    the ranks they report."""

    @settings(max_examples=150, deadline=None)
    @given(capped_frames())
    @example(EDGE_AND_POINT)
    @example(TWO_FAILURES)
    @example(K4_AND_POINT)
    def test_capped_frames(self, frame):
        check_strings(frame)

    @pytest.mark.parametrize("name", fixtures.FIXTURE_NAMES)
    def test_fixtures(self, cx, name):
        for frame in fixture_frames(cx, [name]):
            check_strings(frame)

    @pytest.mark.parametrize("complex_", [RP2, T7], ids=["RP2", "T7"])
    @pytest.mark.parametrize("caps", [2, 3, 4])
    def test_surfaces(self, complex_, caps):
        # each link is a cycle of 5 or 6 vertices, whose own peel leaves
        # pairs open, so the links' Jordan types take eliminations of
        # their own
        frame = ArtinianFrame(complex_, caps)
        for v in complex_.vertices:
            link = [f - {v} for f in complex_.facets if v in f]
            assert lefschetz._suspension_strings(link, frame.cap_map) is None
        check_direct(frame)
        assert slp_check(frame) == slp_reference(frame)
        check_strings(frame)
        assert len(lefschetz._peeled_strings(frame)) > 1

    def test_links_eliminate(self, cx):
        # RP2 and DUNCE at caps 3 take ranks on a link's frame; the
        # cross-polytope CROSS4, a join, takes none
        for complex_, eliminates in ((RP2, True), (cx("DUNCE"), True), (cx("CROSS4"), False)):
            frame = ArtinianFrame(complex_, 3)
            frames = []
            real = IsotypicMaps.__init__
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(IsotypicMaps, "__init__",
                              lambda self, f: frames.append(f) or real(self, f))
                slp_check(frame)
            assert any(f != frame for f in frames) == eliminates, complex_


def cone(complex_):
    apex = max(complex_.vertices) + 1
    return from_facets([f | {apex} for f in complex_.facets])


def decided(frame):
    """(j, i) -> rank of ×L^j from degree i for every pair ``_certified``
    decides."""
    peeled = lefschetz._peeled_strings(frame)
    dims = hilbert_series(frame)
    top = len(dims) - 1
    return {(j, i): r for i in range(top) for j in range(1, top - i + 1)
            if (r := lefschetz._certified(peeled, i, j)) is not None}


def recorded_slp(frame):
    """``slp_check(frame)`` and the number of ranks it eliminated."""
    ranked = []
    real = linalg.rank
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "rank", lambda m: ranked.append(m) or real(m))
        report = slp_check(frame)
    return report, len(ranked)


class TestSnakeRule:
    """Ranks ``_certified`` reads from the levels of the peel, the snake
    lemma's connecting map ruled out level by level, against elimination;
    ``check_peel`` compares them wherever the peel is tested."""

    def test_c3_declines(self, cx):
        # C3 caps 2 peels vertex 1: its star piece is (1, 2) and (2, 1),
        # and the leaf, the edge {2, 3}, is (0, 3) and (1, 1).  ×L from
        # degree 1 is not onto on the star piece (rank 1 into dim 2) nor
        # injective on the leaf (rank 1 from dim 2), so the rule leaves the
        # sum 2 open, and the rank is 3
        frame = ArtinianFrame(cx("C3"), 2)
        star, leaf = lefschetz._peeled_strings(frame)
        assert (star, leaf) == (Counter({(1, 2): 1, (2, 1): 1}), Counter({(0, 3): 1, (1, 1): 1}))
        assert lefschetz._covering(star, 1, 1) + lefschetz._covering(leaf, 1, 1) == 2
        assert lefschetz._certified((star, leaf), 1, 1) is None
        assert wlp_check(frame).per_degree[1].rank == 3
        # the pairs (j, i) left open at caps 2 to 4: where the sum is below
        # the rank, and a few where it is the rank without a proof
        opened = {}
        for caps in (2, 3, 4):
            frame = ArtinianFrame(cx("C3"), caps)
            ranks = slp_ranks(frame, slp_composed)
            check_peel(frame, ranks)
            opened[caps] = sorted(set(ranks) - set(decided(frame)))
        assert opened == {2: [(1, 1)], 3: [(1, 2), (3, 1)], 4: [(1, 3), (3, 2), (5, 1)]}

    def test_levels_are_walked_from_the_leaf(self):
        # the path 3 - 1 - 2 - 4 - 5 peels 3, then 1, and leaves
        # {4} * {2, 5}; each level's test reads the ranks of the levels
        # below it, so a walk from the top reports a wrong slp_check
        frame = ArtinianFrame(from_facets([{3, 1}, {1, 2}, {2, 4}, {4, 5}]),
                              {1: 3, 2: 2, 3: 4, 4: 4, 5: 2})
        ranks = slp_ranks(frame, slp_composed)
        peeled = check_peel(frame, ranks)
        assert peeled == (Counter({(1, 5): 1, (2, 3): 1, (3, 1): 1}),
                          Counter({(1, 3): 1, (2, 1): 1}),
                          Counter({(0, 5): 1, (1, 3): 1, (1, 4): 1}))
        assert sorted(set(ranks) - set(decided(frame))) == [(1, 2), (3, 1), (5, 0)]

    @pytest.mark.parametrize("caps, failure", [(2, (3, 35)), (3, (5, 298)),
                                               (5, (10, 2878)), (6, (13, 6230))])
    def test_ball10_wlp_eliminates_nothing(self, cx, caps, failure):
        # caps 4 is TestSocleRule's
        frame = ArtinianFrame(cx("BALL10"), caps)
        assert len(lefschetz._peeled_strings(frame)) == 3
        report, built, eliminated = recorded(frame)
        assert built == [] and eliminated == set()
        assert [(p.k, p.rank) for p in report.failures()] == [failure]

    @pytest.mark.parametrize("caps", [2, 3, 4])
    def test_ball10_slp_eliminates_nothing(self, cx, caps):
        # at caps 4 the composed maps take seconds: 120 pairs up to 1134 x 1076
        frame = ArtinianFrame(cx("BALL10"), caps)
        report, eliminated = recorded_slp(frame)
        assert eliminated == 0
        assert len(report.per_pair) == len(decided(frame))
        assert report == slp_composed(frame)

    @pytest.mark.parametrize("name", ["C3", "FAN4", "PATH3", "C4", "BALL10"])
    def test_cones_and_suspensions(self, cx, name):
        base = cx(name)
        frames = [ArtinianFrame(cone(base), caps) for caps in (2, 3)]
        if name == "BALL10":
            frames = frames[:1]  # its suspension is TestPeel's
        else:
            frames += [ArtinianFrame(suspension(base), caps) for caps in (2, 3)]
        for frame in frames:
            check_peel(frame, slp_ranks(frame, slp_composed))


# --- sops of Cohen-Macaulay complexes, decided without the scan ------------


def scan_route(monkeypatch):
    """Send every quotient through the Hilbert-function scan, the route
    ``_sop_values`` replaces on sops of Cohen-Macaulay complexes."""
    monkeypatch.setattr(lefschetz, "_sop_values", lambda complex_, extra: None)


def outcome(run):
    try:
        return run()
    except LefkitError as exc:
        return type(exc).__name__


def sop_outputs(complex_, theta, members):
    """What the sop route feeds: the SopCheck, quotient_hilbert from degree
    -1 to one past the vanishing bound, the inverse-system pieces of degree 1
    and 2, ideal_membership of each member and, on a complex with vertices,
    the UnexpectedReport of the sum of the variables at caps 2."""
    theta = tuple(theta)
    top = lefschetz._vanishing_bound(complex_, theta) + 1
    out = [
        outcome(lambda: is_sop(complex_, SopCandidate.make(theta))),
        [quotient_hilbert(complex_, theta, k) for k in range(-1, top + 1)],
        [outcome(lambda k=k: inverse_system_piece(complex_, theta, k)) for k in (1, 2)],
        [outcome(lambda g=g: ideal_membership(complex_, theta, g)) for g in members],
    ]
    if complex_.vertices:
        h = fh_profile(complex_).h_degree
        t = max(sum(g.degree() for g in theta) + h - complex_.dim - 1, h)
        L = sum_of_variables(complex_.vertices)
        out.append(outcome(
            lambda: verify_unexpected(complex_, SopCandidate.make(theta), L, 2, t)))
    return out


def check_against_scan(monkeypatch, complex_, theta, members=()):
    """The outputs equal the scan's; returns what ``_sop_values`` made of
    the forms."""
    got = sop_outputs(complex_, theta, members)
    values = lefschetz._sop_values(complex_, tuple(theta))
    with monkeypatch.context() as m:
        scan_route(m)
        assert sop_outputs(complex_, theta, members) == got, (complex_, theta)
    return values


def members_of(complex_, theta):
    vs = complex_.vertices
    return [theta[0], Polynomial.variable(vs[0]), Polynomial.variable(vs[-1], 2),
            sum_of_variables(vs)]


@st.composite
def sop_shaped(draw):
    """A relabelled fixture and d + 1 forms, or one fewer or one more: each
    a combination of every vertex's pure power with coefficients in
    -2..2, so singular facet restrictions are common, plus a face monomial
    of mixed support when quadratic; the last form is sometimes the first
    again.  Quadratic forms only on fixtures of at most six vertices."""
    base = fixtures.load(draw(st.sampled_from(fixtures.FIXTURE_NAMES)))
    ids = draw(st.permutations(range(1, 4 * len(base.vertices) + 1)))
    relabel = dict(zip(base.vertices, ids))
    complex_ = from_facets([{relabel[v] for v in f} for f in base.facets])
    n = complex_.dim + 1 + draw(st.sampled_from([0, 0, 0, -1, 1]))
    top = 2 if len(complex_.vertices) <= 6 else 1
    forms = []
    for e in draw(st.lists(st.integers(1, top), min_size=n, max_size=n)):
        terms = {Monomial({v: e}): draw(st.integers(-2, 2)) for v in complex_.vertices}
        facet = sorted(draw(st.sampled_from(complex_.facets)))
        if e == 2 and len(facet) > 1:
            terms[Monomial({facet[0]: 1, facet[1]: 1})] = draw(st.integers(-2, 2))
        form = Polynomial(terms)
        forms.append(form if not form.is_zero() else Polynomial.variable(facet[0], e))
    if n > 1 and draw(st.booleans()):
        forms[-1] = forms[0]
    return complex_, forms


class TestSopRoute:
    """``_sop_values`` against the Hilbert-function scan it replaces, on
    sops of Cohen-Macaulay complexes and the input around them."""

    @settings(max_examples=150, deadline=None)
    @given(sop_shaped())
    def test_fixture_candidates_match_the_scan(self, case):
        complex_, theta = case
        assert is_cohen_macaulay(complex_)
        with pytest.MonkeyPatch.context() as monkeypatch:
            values = check_against_scan(monkeypatch, complex_, theta,
                                        members_of(complex_, theta))
        event(f"{len(complex_.vertices)} vertices, {'route' if values else 'scan'}, "
              f"degrees {sorted({g.degree() for g in theta})}")

    @pytest.mark.parametrize("name", fixtures.FIXTURE_NAMES)
    def test_accepted_candidates_take_the_route(self, cx, name, monkeypatch):
        # seeded sops with coefficients 1..3: linear ones, and one quadratic
        # form on the fixtures of at most six vertices
        complex_ = cx(name)
        rng = random.Random(f"sop-route/{name}")
        profile = fh_profile(complex_)
        h = list(profile.h[: profile.h_degree + 1])
        for e in [1] if len(complex_.vertices) > 6 else [1, 2]:
            for _ in range(50):
                theta = [
                    Polynomial({Monomial({v: 1 if i < complex_.dim else e}): rng.randint(1, 3)
                                for v in complex_.vertices})
                    for i in range(complex_.dim + 1)
                ]
                if is_sop(complex_, SopCandidate.make(theta)):
                    break
            else:
                pytest.fail(f"no sop of degrees {e} drawn on {name}")
            values = check_against_scan(monkeypatch, complex_, theta,
                                        members_of(complex_, theta))
            assert values == tuple(convolve(h, [1] * e)) + (0,)
            if e == 1:
                assert facet_rank_criterion(complex_, theta)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(fixtures.FIXTURE_NAMES),
           st.lists(st.integers(-1, 2), min_size=50, max_size=50))
    def test_kind_kleinschmidt_matches_the_dense_criterion(self, name, coeffs):
        # form i has coefficient coeffs[i * |V| + j] at the j-th vertex
        complex_ = fixtures.load(name)
        vs = complex_.vertices
        theta = [Polynomial({Monomial({v: 1}): coeffs[i * len(vs) + j] for j, v in enumerate(vs)})
                 for i in range(complex_.dim + 1)]
        assume(not any(th.is_zero() for th in theta))
        taken = lefschetz._sop_values(complex_, tuple(theta)) is not None
        assert taken == facet_rank_criterion(complex_, theta)
        assert taken == is_sop(complex_, SopCandidate.make(theta)).is_sop

    def test_singular_duplicated_and_miscounted_forms(self, cx, monkeypatch):
        oct_ = cx("OCT")
        line = [P("x1 + x2"), P("x3 + x4"), P("x5 + x6")]
        quad = [P("x1 + x2"), P("x3 + x4"), P("x5^2 + x6^2")]
        cases = [
            line,
            quad,
            [P("x1 + x2"), P("x1 + x2"), P("x5 + x6")],  # a form given twice
            [P("x1 + x2"), P("x3 + x4"), P("x1 + x2 + x3 + x4")],  # singular, rank 2
            [P("x1 + x2"), P("x3 + x4"), P("x1^2 + x3^2")],  # quadratic, no sop
            line[:2],  # one form short
            line + [P("x1 - x3")],  # one form long
            line + [Polynomial()],  # a zero form
        ]
        taken = [check_against_scan(monkeypatch, oct_, theta, members_of(oct_, theta))
                 is not None for theta in cases]
        assert taken == [True, True, False, False, False, False, False, False]

    def test_a_constant_form_takes_the_scan(self, cx, monkeypatch):
        # a constant is a valid extra form of a quotient, which it kills,
        # but no sop entry: a sop lies in the maximal ideal
        oct_ = cx("OCT")
        theta = [P("x1 + x2"), P("x3 + x4"), Polynomial.constant(1)]
        assert check_against_scan(monkeypatch, oct_, theta) is None
        assert quotient_hilbert(oct_, theta, 0) == 0
        with pytest.raises(HomogeneityError, match="positive degree"):
            SopCandidate.make(theta)

    def test_non_cohen_macaulay_takes_the_scan(self, monkeypatch):
        complex_ = from_facets([{1, 2}, {2, 3}, {1, 3}, {4, 5}])
        theta = [P("x1 + 2 x2 + 3 x3 + x4"), P("x1 + x2 + x3 + x5")]
        assert check_against_scan(monkeypatch, complex_, theta,
                                  members_of(complex_, theta)) is None
        assert is_sop(complex_, SopCandidate.make(theta)).hilbert_values == (1, 3, 1, 0)

    def test_void_complex_without_forms(self, monkeypatch):
        void = SimplicialComplex([frozenset()])
        assert void.dim == -1 and is_cohen_macaulay(void)
        assert check_against_scan(monkeypatch, void, [], [Polynomial.constant(2)]) == (1, 0)
        assert is_sop(void, SopCandidate.make([])) == lefschetz.SopCheck(True, 1, (1, 0))
