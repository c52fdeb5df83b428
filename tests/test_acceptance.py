"""Acceptance criteria, one test per criterion.

Every check is exact (tolerance zero).  Each test prints one
``ACCEPTANCE <id>: PASS/FAIL`` line (visible with ``pytest -s``) and
asserts both the exact values and the stated runtime budget.

Run with::

    pytest tests/test_acceptance.py -v -s
"""

import random
import time
from fractions import Fraction

import networkx as nx
import pytest

from lefkit import linalg
from lefkit.complexes import (
    balanced_coloring,
    collapse_search,
    fh_profile,
    from_facets,
    replay_collapse,
)
from lefkit.lefschetz import (
    SopCandidate,
    colored_sop,
    divergence_bound_check,
    graph_wlp_classifier,
    inverse_system_piece,
    is_sop,
    kernel_transpose_basis,
    quotient_hilbert,
    slp_check,
    universal_sop,
    verify_unexpected,
    wlp_check,
)
from lefkit.monomials import (
    ArtinianFrame,
    Polynomial,
    divided_power_rescale,
    hilbert_function,
    multiplication_equals_hesd_log,
    multiplication_matrix,
    parse_polynomial,
    standard_basis,
    sum_of_variables,
)
from lefkit.subdivision import facet_ridge_graph
from lefkit import fixtures

P = parse_polynomial

_c6_elapsed = {}


def report(cid, elapsed, budget, ok=True):
    print(f"\nACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s / budget {budget:.0f}s)")
    assert ok, f"criterion {cid} failed"
    assert elapsed < budget, f"criterion {cid} exceeded its runtime budget"


def in_span(vectors, candidate, monomials_order):
    col = {m: j for j, m in enumerate(monomials_order)}
    entries = {}
    for i, p in enumerate(vectors):
        for m, c in p.terms.items():
            entries[(i, col[m])] = c
    base = linalg.ExactMatrix(len(vectors), len(monomials_order), entries)
    ext_entries = dict(entries)
    for m, c in candidate.terms.items():
        ext_entries[(len(vectors), col[m])] = c
    ext = linalg.ExactMatrix(len(vectors) + 1, len(monomials_order), ext_entries)
    return linalg.rank(ext) == linalg.rank(base)


@pytest.fixture(scope="module")
def ball10_kernel(cx):
    """BALL10 caps-4 transpose kernel at degree 9, shared across criteria."""
    frame = ArtinianFrame(cx("BALL10"), 4)
    return frame, kernel_transpose_basis(frame, 9)


def test_criterion_1_cross4(cx):
    t0 = time.perf_counter()
    cross = cx("CROSS4")
    frame = ArtinianFrame(cross, 3)
    ok = hilbert_function(frame, 5) == 160
    ok &= hilbert_function(frame, 6) == 128
    piece = kernel_transpose_basis(frame, 6)
    ok &= piece.dimension == 2
    f1 = (
        P("x1-x2") * P("x3-x4") * P("x5-x6") * P("x7-x8")
        * P("x1+x2-x3-x4") * P("x5+x6-x7-x8")
    )
    from lefkit.monomials import reduce_to_frame

    f1_reduced = reduce_to_frame(frame, f1)
    ok &= not f1_reduced.is_zero()
    ok &= in_span(list(piece.basis), f1_reduced, standard_basis(frame, 6))
    report("C1 (CROSS4 caps 3)", time.perf_counter() - t0, 10, ok)


def test_criterion_2_ball10(cx, ball10_kernel):
    t0 = time.perf_counter()
    ball = cx("BALL10")
    frame, piece = ball10_kernel
    L = sum_of_variables(ball.vertices)

    hf_j = [hilbert_function(frame, k) for k in range(11)]
    ok = hf_j == [1, 10, 43, 126, 285, 520, 793, 1026, 1134, 1076, 870]

    extra = frame.power_generators() + [L]
    hf_jl = [quotient_hilbert(ball, extra, k) for k in range(11)]
    ok &= hf_jl == [1, 9, 33, 83, 159, 235, 273, 233, 108, 7, 0]

    ok &= piece.dimension == 7

    m12 = multiplication_matrix(frame, L, 12)
    ok &= linalg.rank(m12) == hilbert_function(frame, 13)
    report("C2 (BALL10 caps 4)", time.perf_counter() - t0, 300, ok)


def test_criterion_3_oct_caps5(cx):
    t0 = time.perf_counter()
    frame = ArtinianFrame(cx("OCT"), 5)
    ok = hilbert_function(frame, 6) == 116
    ok &= hilbert_function(frame, 7) == 120
    ok &= kernel_transpose_basis(frame, 7).dimension == 5
    report("C3 (OCT caps 5)", time.perf_counter() - t0, 30, ok)


def test_criterion_4_oct_caps2(cx):
    t0 = time.perf_counter()
    oct_ = cx("OCT")
    frame = ArtinianFrame(oct_, 2)

    wlp = wlp_check(frame)
    failures = wlp.failures()
    ok = not wlp.holds and len(failures) == 1
    p = failures[0]
    ok &= (p.k, p.failure_mode) == (2, "surjectivity")

    piece = kernel_transpose_basis(frame, 3)
    ok &= piece.dimension == 1
    bipartition_poly = P(
        "x1*x4*x5 - x1*x3*x5 + x1*x3*x6 - x1*x4*x6"
        " - x2*x4*x5 + x2*x4*x6 - x2*x3*x6 + x2*x3*x5"
    )
    ratios = {piece.basis[0].coefficient(m) / c for m, c in bipartition_poly.terms.items()}
    ok &= len(ratios) == 1 and Fraction(0) not in ratios

    rho = balanced_coloring(oct_)
    cand = colored_sop(oct_, rho)
    L = sum_of_variables(oct_.vertices)
    ok &= verify_unexpected(oct_, cand, L, 2, 3).overall
    report("C4 (OCT caps 2)", time.perf_counter() - t0, 1, ok)


def test_criterion_5_universal_sop(cx):
    t0 = time.perf_counter()
    oct_ = cx("OCT")
    cand = universal_sop(6, 3)
    L = sum_of_variables(oct_.vertices)
    rep = verify_unexpected(oct_, cand, L, 4, 6)
    ok = rep.overall
    values = [quotient_hilbert(oct_, cand.theta, k) for k in range(7)]
    ok &= values == [1, 5, 11, 14, 11, 5, 1]
    ok &= quotient_hilbert(oct_, cand.theta, 7) == 0
    report("C5 (universal sop on OCT)", time.perf_counter() - t0, 5, ok)


# --- criterion 6: property suites ------------------------------------------


def _random_form(rng, vertices, degree=1):
    from lefkit.monomials import Monomial

    while True:
        coeffs = [rng.randint(0, 6) for _ in vertices]
        if any(coeffs):
            return Polynomial(
                {Monomial({v: degree}): Fraction(c)
                 for v, c in zip(vertices, coeffs) if c}
            )


def _random_sops(cx_factory, name, how_many, rng, quadratic_last=False):
    """Rejection-sample candidate sops; a quadratic sum of squares replaces
    the last form on every other draw when requested."""
    complex_ = cx_factory(name)
    d = complex_.dim
    found = []
    attempts = 0
    while len(found) < how_many and attempts < 600:
        attempts += 1
        forms = [_random_form(rng, complex_.vertices) for _ in range(d + 1)]
        if quadratic_last and len(found) % 2 == 1:
            forms[-1] = _random_form(rng, complex_.vertices, degree=2)
        cand = SopCandidate.make(forms)
        if is_sop(complex_, cand).is_sop:
            found.append(cand)
    assert len(found) == how_many, f"could not sample enough sops over {name}"
    return complex_, found


def _convolve(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_criterion_6a_macaulay_duality(cx):
    t0 = time.perf_counter()
    rng = random.Random(20260809)
    total = 0
    for name, count, quad in [("OCT", 8, True), ("C4", 6, False), ("CROSS4", 6, False)]:
        complex_, cands = _random_sops(cx, name, count, rng, quadratic_last=quad)
        h = list(fh_profile(complex_).h)
        while h and h[-1] == 0:
            h.pop()
        for cand in cands:
            total += 1
            check = is_sop(complex_, cand)
            # product formula for the quotient Hilbert function
            expected = h
            for th in cand.theta:
                expected = _convolve(expected, [1] * th.degree())
            got = list(check.hilbert_values[:-1])
            assert got == expected, (name, got, expected)
            # Macaulay duality: dual piece dimension matches in every degree
            for k in range(check.vanishing_degree + 1):
                piece = inverse_system_piece(complex_, list(cand.theta), k)
                assert piece.dimension == quotient_hilbert(complex_, list(cand.theta), k)
    assert total >= 20
    _c6_elapsed["6a"] = time.perf_counter() - t0
    report("C6a (Macaulay duality, >=20 quotients)", _c6_elapsed["6a"], 420)


def test_criterion_6b_dao_nair(cx):
    t0 = time.perf_counter()
    checked = 0
    for name in fixtures.FIXTURE_NAMES:
        complex_ = cx(name)
        from lefkit.complexes import pseudomanifold_status

        status = pseudomanifold_status(complex_)
        if not (status.is_pseudomanifold() and status.boundary is None):
            continue
        checked += 1
        frame = ArtinianFrame(complex_, 2)
        d = complex_.dim
        mat = multiplication_matrix(frame, frame.linear_form(), d)
        surjective = linalg.rank(mat) == hilbert_function(frame, d + 1)
        bipartite = facet_ridge_graph(complex_).bipartition is not None
        assert surjective == (not bipartite), name
    assert checked >= 4  # OCT, CROSS4, C3, C4
    _c6_elapsed["6b"] = time.perf_counter() - t0
    report("C6b (Dao-Nair equivalence)", _c6_elapsed["6b"], 60)


def test_criterion_6c_balanced_iff_bipartite(cx):
    t0 = time.perf_counter()
    for name in fixtures.DECLARED_SPHERES:
        complex_ = cx(name)
        rho = balanced_coloring(complex_)
        bipartite = facet_ridge_graph(complex_).bipartition is not None
        assert (rho is not None) == bipartite, name
        if rho is None:
            continue
        # the colored sop is a 2-unexpected sop of total degree d+1
        cand = colored_sop(complex_, rho)
        L = sum_of_variables(complex_.vertices)
        assert verify_unexpected(complex_, cand, L, 2, complex_.dim + 1).overall, name
        # and the top transpose kernel is one-dimensional
        piece = kernel_transpose_basis(ArtinianFrame(complex_, 2), complex_.dim + 1)
        assert piece.dimension == 1, name
    assert balanced_coloring(cx("C3")) is None  # the non-balanced case
    _c6_elapsed["6c"] = time.perf_counter() - t0
    report("C6c (balanced iff bipartite + colored unexpectedness)", _c6_elapsed["6c"], 60)


def test_criterion_6d_classifier_exhaustive(cx):
    t0 = time.perf_counter()
    graphs = [
        g for g in nx.graph_atlas_g()
        if g.number_of_nodes() >= 2 and 1 <= g.number_of_edges() <= 6 and nx.is_connected(g)
    ]
    # connected graphs with 1..6 edges up to isomorphism: 1+1+3+5+12+30
    assert len(graphs) == 52
    for g in graphs:
        complex_ = from_facets([set(e) for e in g.edges()])
        for a in (2, 3, 4):
            predicted = graph_wlp_classifier(complex_, a).wlp
            direct = wlp_check(ArtinianFrame(complex_, a)).holds
            assert predicted == direct, (sorted(g.edges()), a)
    _c6_elapsed["6d"] = time.perf_counter() - t0
    report(f"C6d (classifier vs rank on {len(graphs)} graphs)", _c6_elapsed["6d"], 420)


def test_criterion_6e_hausel_injectivity(cx):
    t0 = time.perf_counter()
    for name in fixtures.GRAPH_FIXTURES:
        for a in (2, 3, 4, 5):
            frame = ArtinianFrame(cx(name), a)
            L = frame.linear_form()
            for k in range(a - 1):  # 0 <= k <= a-2
                mat = multiplication_matrix(frame, L, k)
                assert linalg.rank(mat) == hilbert_function(frame, k), (name, a, k)
    _c6_elapsed["6e"] = time.perf_counter() - t0
    report("C6e (Hausel injectivity for graph frames)", _c6_elapsed["6e"], 60)


def test_criterion_6f_collapsible_surjectivity(cx):
    t0 = time.perf_counter()
    simplex = from_facets([{1, 2, 3}])
    simplex.name = "SIMPLEX3"
    for complex_ in (cx("FAN4"), simplex):
        d = complex_.dim
        cert = collapse_search(complex_, d - 1)
        assert cert is not None and replay_collapse(complex_, cert)
        for a in (2, 3, 4):
            frame = ArtinianFrame(complex_, a)
            k = d * (a - 1)
            mat = multiplication_matrix(frame, frame.linear_form(), k)
            assert linalg.rank(mat) == hilbert_function(frame, k + 1), (complex_.name, a)
    _c6_elapsed["6f"] = time.perf_counter() - t0
    report("C6f (collapsibility implies surjectivity)", _c6_elapsed["6f"], 60)


def test_criterion_6g_hesd_log_correspondence(cx):
    t0 = time.perf_counter()
    cases = [("FAN4", 3), ("OCT", 2)]
    cases += [(name, a) for name in fixtures.GRAPH_FIXTURES for a in (2, 3, 4)]
    for name, a in cases:
        assert multiplication_equals_hesd_log(cx(name), a).equal, (name, a)
    _c6_elapsed["6g"] = time.perf_counter() - t0
    report("C6g (multiplication matrix = hesd log matrix)", _c6_elapsed["6g"], 60)


def test_criterion_6h_divergence_bounds(cx, ball10_kernel):
    t0 = time.perf_counter()
    kernels = []
    for name, caps, degree in [("OCT", 2, 3), ("OCT", 5, 7), ("CROSS4", 3, 6), ("C4", 2, 2)]:
        frame = ArtinianFrame(cx(name), caps)
        kernels.append((frame, kernel_transpose_basis(frame, degree)))
    kernels.append(ball10_kernel)
    checked = 0
    for frame, piece in kernels:
        a = max(dict(frame.caps).values())
        n = len(frame.complex.vertices)
        for F in piece.basis:
            checked += 1
            assert divergence_bound_check(divided_power_rescale(F), a, n=n)
    assert checked >= 16  # 1 + 5 + 2 + 1 + 7
    _c6_elapsed["6h"] = time.perf_counter() - t0
    report("C6h (divergence bound on every transpose kernel)", _c6_elapsed["6h"], 120)


def test_criterion_6_combined_budget():
    total = sum(_c6_elapsed.values())
    assert len(_c6_elapsed) == 8, "criterion-6 subsuites must all have run"
    report("C6 (combined property-suite runtime)", total, 600)


def test_slp_reported_not_asserted(cx):
    # conjectural strong Lefschetz behaviour is reported, never asserted
    for name, caps in [("OCT", 2), ("C4", 2), ("EDGE", 3)]:
        rep = slp_check(ArtinianFrame(cx(name), caps))
        print(f"\nSLP report {name} caps {caps}: holds={rep.holds} "
              f"pairs={len(rep.per_pair)}")


def test_slp_ball10_caps3(cx):
    t0 = time.perf_counter()
    frame = ArtinianFrame(cx("BALL10"), 3)
    rep = slp_check(frame)
    elapsed = time.perf_counter() - t0
    wlp = wlp_check(frame)
    ok = [p[4] for p in rep.per_pair if p[0] == 1] == [p.rank for p in wlp.per_degree]
    # the failing (j, i, rank) triples, as the expanded-L^j path reported them
    ok &= [(j, i, r) for j, i, _, _, r, full in rep.per_pair if not full] == [
        (1, 5, 298), (2, 5, 238), (3, 4, 204), (4, 4, 129), (5, 3, 101),
        (6, 3, 46), (7, 2, 33), (8, 2, 9), (9, 1, 6),
    ]
    ok &= len(rep.per_pair) == 55 and not rep.holds
    report("SLP (BALL10 caps 3)", elapsed, 5, ok)


def test_wlp_cross5_caps5(cx):
    # the 7760x7232 map at degree 10 is the largest; the twin swaps split
    # every map into 32 blocks
    from itertools import product

    from lefkit.monomials import _standard_monomials

    cross5 = from_facets([set(c) for c in product(*[(2 * i + 1, 2 * i + 2) for i in range(5)])])
    t0 = time.perf_counter()
    rep = wlp_check(ArtinianFrame(cross5, 5))
    elapsed = time.perf_counter() - t0
    # its 59049 cached basis monomials would slow every later full garbage
    # collection, and with it the timing gates of later tests
    _standard_monomials.cache_clear()
    # the per-degree ranks, as direct elimination of each ×L map gave them
    ok = [p.rank for p in rep.per_degree] == [
        1, 10, 50, 170, 450, 992, 1880, 3120, 4600, 6080,
        7216, 7445, 6560, 5120, 3552, 2160, 1120, 480, 160, 32,
    ]
    ok &= (rep.per_degree[10].dim_from, rep.per_degree[10].dim_to) == (7232, 7760)
    ok &= [p.k for p in rep.failures()] == [10, 11] and not rep.holds
    report("WLP (5-cross-polytope caps 5)", elapsed, 5, ok)
