"""Complex construction, face machinery and topological predicates."""

import random
import time
from itertools import combinations, product

import pytest
import sympy
from hypothesis import assume, example, given, settings, strategies as st

from lefkit.complexes import (
    CollapseCertificate,
    HomologyReport,
    _reduced_betti,
    _ridge_pairs,
    _ridges,
    SimplicialComplex,
    balanced_coloring,
    boundary_matrix,
    collapse_search,
    faces,
    fh_profile,
    from_facets,
    homology,
    is_cohen_macaulay,
    is_homology_sphere,
    link,
    pseudomanifold_status,
    replay_collapse,
)
from lefkit.errors import (
    DimensionError,
    InvalidComplex,
    NotAFace,
    ParseError,
    PurityError,
    RangeError,
)
from lefkit import fixtures, linalg

ALL_FIXTURES = fixtures.FIXTURE_NAMES


def brute_force_faces(cx, k):
    """Independent oracle: k-faces as subsets of facets, deduplicated."""
    out = set()
    for f in cx.facets:
        out.update(frozenset(c) for c in combinations(sorted(f), k + 1))
    return out


class TestFromFacets:
    def test_triangle_cycle(self):
        cx = from_facets([{1, 2}, {2, 3}, {1, 3}])
        assert cx.dim == 1 and len(cx.facets) == 3

    def test_subset_facet_dropped(self):
        cx = from_facets([{1, 2, 3}, {1, 2}])
        assert cx.facets == (frozenset({1, 2, 3}),)

    def test_oct_fixture(self, cx):
        oct_ = cx("OCT")
        assert oct_.dim == 2 and len(oct_.facets) == 8

    def test_empty_rejected(self):
        with pytest.raises(InvalidComplex):
            from_facets([])
        with pytest.raises(InvalidComplex):
            from_facets([set()])

    def test_bad_vertex_ids(self):
        with pytest.raises(InvalidComplex):
            from_facets([{-1, 2}])
        with pytest.raises(InvalidComplex):
            from_facets([{"a", "b"}])

    def test_facets_sorted_and_deduped(self):
        cx = from_facets([{2, 3}, {1, 2}, {2, 3}])
        assert cx.facets == (frozenset({1, 2}), frozenset({2, 3}))


class TestFromJsonDict:
    def test_declared_vertices_must_cover_the_facets(self):
        cx = SimplicialComplex.from_json_dict({"facets": [[1, 2]], "vertices": [1, 2, 3]})
        assert cx.facets == (frozenset({1, 2}),)
        with pytest.raises(ParseError):
            SimplicialComplex.from_json_dict({"facets": [[1, 2]], "vertices": [1]})

    @pytest.mark.parametrize("vertices", [5, [[1], [2]], None])
    def test_malformed_vertices_are_parse_errors(self, vertices):
        with pytest.raises(ParseError):
            SimplicialComplex.from_json_dict({"facets": [[1, 2]], "vertices": vertices})

    @pytest.mark.parametrize("obj", [{}, {"facets": 3}, [[1, 2]], None])
    def test_malformed_facets_are_parse_errors(self, obj):
        with pytest.raises(ParseError):
            SimplicialComplex.from_json_dict(obj)


class TestFaces:
    def test_oct_edges(self, cx):
        oct_ = cx("OCT")
        got = faces(oct_, 1)
        assert len(got) == 12
        assert set(got) == brute_force_faces(oct_, 1)

    def test_oct_vertices(self, cx):
        assert len(faces(cx("OCT"), 0)) == 6

    def test_c3_edges(self, cx):
        assert set(faces(cx("C3"), 1)) == {
            frozenset({1, 2}), frozenset({2, 3}), frozenset({1, 3})
        }

    def test_empty_face(self, cx):
        assert faces(cx("C3"), -1) == [frozenset()]

    def test_out_of_range(self, cx):
        with pytest.raises(DimensionError):
            faces(cx("C3"), 2)
        with pytest.raises(DimensionError):
            faces(cx("C3"), -2)


class TestFHProfile:
    def test_oct(self, cx):
        p = fh_profile(cx("OCT"))
        assert p.f == (1, 6, 12, 8)
        assert p.h == (1, 3, 3, 1)
        assert p.h_degree == 3

    def test_single_vertex(self):
        p = fh_profile(from_facets([{1}]))
        assert p.f == (1, 1) and p.h == (1, 0)

    def test_c4(self, cx):
        p = fh_profile(cx("C4"))
        assert p.f == (1, 4, 4) and p.h == (1, 2, 1) and p.h_degree == 2

    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_defining_relation_sympy_oracle(self, cx, name):
        complex_ = cx(name)
        p = fh_profile(complex_)
        x = sympy.Symbol("x")
        d = complex_.dim
        lhs = sum(p.f[i] * (x - 1) ** (d + 1 - i) for i in range(d + 2))
        rhs = sum(p.h[i] * x ** (d + 1 - i) for i in range(d + 2))
        assert sympy.expand(lhs - rhs) == 0

    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_sum_h_and_h0(self, cx, name):
        p = fh_profile(cx(name))
        assert sum(p.h) == p.f[-1]
        assert p.h[0] == 1


class TestLink:
    def test_oct_vertex_link_is_square(self, cx):
        lk = link(cx("OCT"), {1})
        assert lk.vertices == (3, 4, 5, 6)
        assert set(lk.facets) == {
            frozenset({3, 5}), frozenset({3, 6}), frozenset({4, 5}), frozenset({4, 6})
        }

    def test_link_of_empty_is_identity(self, cx):
        oct_ = cx("OCT")
        assert link(oct_, set()) == oct_

    def test_c3_vertex(self, cx):
        lk = link(cx("C3"), {1})
        assert set(lk.facets) == {frozenset({2}), frozenset({3})}

    def test_link_of_facet(self, cx):
        lk = link(cx("OCT"), {1, 3, 5})
        assert lk.dim == -1

    def test_not_a_face(self, cx):
        with pytest.raises(NotAFace):
            link(cx("OCT"), {1, 2})

    def test_dimension_bound(self, cx):
        oct_ = cx("OCT")
        for sigma in oct_.all_faces():
            assert link(oct_, sigma).dim <= oct_.dim - len(sigma)


def reference_link(cx, sigma):
    """``link`` scanning the facets twice: a face test, then the filter."""
    s = frozenset(sigma)
    if not cx.has_face(s):
        raise NotAFace(f"{sorted(s)} is not a face")
    return SimplicialComplex(f - s for f in cx.facets if s <= f)


class TestLinkOracle:
    @settings(max_examples=120, deadline=None)
    @given(st.lists(st.frozensets(st.integers(1, 7), min_size=1, max_size=4),
                    min_size=1, max_size=6))
    @example([{1}, {2, 3}])
    def test_every_face_and_a_non_face(self, facets):
        complex_ = from_facets(facets)
        for sigma in complex_.all_faces():
            got, expected = link(complex_, sigma), reference_link(complex_, sigma)
            assert got == expected and hash(got) == hash(expected)
        non_face = frozenset(complex_.vertices) | {99}
        with pytest.raises(NotAFace):
            reference_link(complex_, non_face)
        with pytest.raises(NotAFace):
            link(complex_, non_face)


class TestHomology:
    def test_oct_is_2_sphere(self, cx):
        rep = homology(cx("OCT"))
        assert rep.ranks == (0, 0, 0, 1)
        assert rep.top_cycle is not None
        image = boundary_matrix(cx("OCT"), 2).apply(rep.top_cycle)
        assert all(v == 0 for v in image)

    def test_c4_is_circle(self, cx):
        assert homology(cx("C4")).ranks == (0, 0, 1)

    def test_dunce_contractible(self, cx):
        assert homology(cx("DUNCE")).ranks == (0, 0, 0, 0)

    def test_two_points(self):
        rep = homology(from_facets([{1}, {2}]))
        assert rep.ranks == (0, 1)

    def test_rank_refuses_degrees_outside_the_complex(self, cx):
        rep = homology(cx("OCT"))
        assert (rep.rank(-1), rep.rank(2)) == (0, 1)
        for i in (-2, 3):
            with pytest.raises(DimensionError):
                rep.rank(i)

    @pytest.mark.parametrize("name", ["OCT", "FAN4", "DUNCE", "C4"])
    def test_relabel_invariance(self, cx, name):
        base = cx(name)
        rng = random.Random(hash(name) & 0xFFFF)
        verts = list(base.vertices)
        for _ in range(3):
            images = list(range(1, len(verts) + 1))
            rng.shuffle(images)
            perm = dict(zip(verts, images))
            relabeled = from_facets([{perm[v] for v in f} for f in base.facets])
            assert homology(relabeled).ranks == homology(base).ranks


class TestCohenMacaulay:
    def test_oct(self, cx):
        assert is_cohen_macaulay(cx("OCT")).holds

    def test_disconnected_graph(self):
        rep = is_cohen_macaulay(from_facets([{1, 2}, {3, 4}]))
        assert not rep.holds
        assert rep.witness_face == frozenset()
        assert rep.witness_index == 0

    def test_dunce(self, cx):
        assert is_cohen_macaulay(cx("DUNCE")).holds

    @pytest.mark.parametrize("name", ["CROSS4", "FAN4", "BALL10", "C3", "C4", "EDGE", "PATH3"])
    def test_fixtures_all_cm(self, cx, name):
        assert is_cohen_macaulay(cx(name)).holds


class TestPseudomanifold:
    def test_oct(self, cx):
        st = pseudomanifold_status(cx("OCT"))
        assert st.pure and st.strongly_connected
        assert st.max_ridge_degree == 2
        assert st.boundary is None
        assert st.orientable

    def test_fan4_has_boundary(self, cx):
        st = pseudomanifold_status(cx("FAN4"))
        assert st.pure and st.strongly_connected
        assert st.boundary is not None
        assert len(st.boundary.facets) == 6  # the rim of the fan
        assert not st.orientable

    def test_disjoint_triangles(self):
        st = pseudomanifold_status(from_facets([{1, 2, 3}, {4, 5, 6}]))
        assert not st.strongly_connected

    def test_triangle_and_edge_are_not_ridge_neighbours(self):
        # a triangle and an edge meet in a vertex, which is a ridge of the
        # edge only: facets of different sizes are never joined
        st = pseudomanifold_status(from_facets([{1, 2, 3}, {3, 4}]))
        assert not st.pure and not st.strongly_connected

    def test_dunce_overfull_ridges(self, cx):
        assert pseudomanifold_status(cx("DUNCE")).max_ridge_degree == 3


class TestHomologySphere:
    def test_oct(self, cx):
        assert is_homology_sphere(cx("OCT"))

    def test_cross4(self, cx):
        assert is_homology_sphere(cx("CROSS4"))

    def test_fan4_is_not(self, cx):
        assert not is_homology_sphere(cx("FAN4"))

    @pytest.mark.parametrize("name", fixtures.DECLARED_SPHERES)
    def test_declared_spheres(self, cx, name):
        complex_ = cx(name)
        assert complex_.meta.get("is_simplicial_sphere")
        assert is_homology_sphere(complex_)
        assert pseudomanifold_status(complex_).orientable


class TestBalancedColoring:
    def test_oct_color_classes(self, cx):
        rho = balanced_coloring(cx("OCT"))
        classes = {frozenset(rho.color_class(c)) for c in (1, 2, 3)}
        assert classes == {frozenset({1, 2}), frozenset({3, 4}), frozenset({5, 6})}

    def test_c3_needs_three(self, cx):
        assert balanced_coloring(cx("C3")) is None

    def test_c4_alternating(self, cx):
        rho = balanced_coloring(cx("C4"))
        assert rho.assignment[1] == rho.assignment[3]
        assert rho.assignment[2] == rho.assignment[4]
        assert rho.assignment[1] != rho.assignment[2]

    def test_purity_required(self):
        with pytest.raises(PurityError):
            balanced_coloring(from_facets([{1, 2, 3}, {4, 5}]))


class TestCollapse:
    def test_full_simplex_to_point(self):
        simplex = from_facets([{1, 2, 3}])
        cert = collapse_search(simplex, 0)
        assert cert is not None
        assert cert.residual.dim == 0
        assert len(cert.residual.facets) == 1
        assert replay_collapse(simplex, cert)

    def test_fan4_to_dim_1(self, cx):
        fan = cx("FAN4")
        cert = collapse_search(fan, 1)
        assert cert is not None and cert.residual.dim <= 1
        assert replay_collapse(fan, cert)

    def test_dunce_has_no_free_face(self, cx):
        assert collapse_search(cx("DUNCE"), 0) is None

    def test_budget_exhaustion(self):
        simplex = from_facets([{1, 2, 3}])
        assert collapse_search(simplex, 0, budget=0) is None

    def test_replay_rejects_tampering(self):
        simplex = from_facets([{1, 2, 3}])
        cert = collapse_search(simplex, 0)
        from lefkit.complexes import CollapseCertificate

        bad = CollapseCertificate(cert.steps[::-1], cert.residual)
        with pytest.raises(ValueError):
            replay_collapse(simplex, bad)

    def test_ball10_collapsible(self, cx):
        ball = cx("BALL10")
        assert ball.meta.get("declared_collapsible")
        cert = collapse_search(ball, 0)
        assert cert is not None
        assert cert.residual.dim == 0 and len(cert.residual.facets) == 1
        assert replay_collapse(ball, cert)

    def test_negative_budget_is_refused(self):
        simplex = from_facets([{1, 2, 3}])
        with pytest.raises(RangeError):
            collapse_search(simplex, 0, budget=-5)

    def test_zero_budget_accepts_a_complex_at_the_target(self):
        simplex = from_facets([{1, 2, 3}])
        cert = collapse_search(simplex, 2, budget=0)
        assert cert is not None and cert.steps == () and cert.residual == simplex

    def test_long_path_collapses_without_recursion(self):
        # a recursive search needed one frame per collapse and overflowed
        path = from_facets([{i, i + 1} for i in range(1200)])
        t0 = time.perf_counter()
        cert = collapse_search(path, 0)
        elapsed = time.perf_counter() - t0
        assert cert is not None and len(cert.steps) == 1200
        assert cert.residual == from_facets([{1200}])
        assert replay_collapse(path, cert)
        assert elapsed < 1.0

    def test_cone_over_cross_polytope5_within_budget(self):
        antipodes = [(2 * i + 1, 2 * i + 2) for i in range(5)]
        cone = from_facets([set(c) | {11} for c in product(*antipodes)])
        t0 = time.perf_counter()
        cert = collapse_search(cone, 0)
        elapsed = time.perf_counter() - t0
        print(f"\ncollapse of the cone over the 5-cross-polytope: {elapsed:.3f}s / budget 1s")
        assert cert is not None and len(cert.steps) == 242
        assert cert.residual.dim == 0 and len(cert.residual.facets) == 1
        assert replay_collapse(cone, cert)
        assert elapsed < 1.0


def reference_collapse_search(cx, target_dim, budget=10**6):
    """Recursive search that rebuilds the face poset at every node.

    The reference for ``collapse_search``, which must return the same
    certificate, or None, for every target and budget.
    """
    def free_faces(face_set):
        cofaces = {f: {g for g in face_set if f < g} for f in face_set}
        out = [(f, next(iter(cs))) for f, cs in cofaces.items() if len(cs) == 1]
        out.sort(key=lambda pair: (-len(pair[0]), sorted(pair[0])))
        return out

    start = set(cx.all_faces()) - {frozenset()}
    steps_budget = [budget]

    def search(face_set, trail):
        if max(len(f) for f in face_set) - 1 <= target_dim:
            return list(trail)
        if steps_budget[0] <= 0:
            return None
        for free, coface in free_faces(face_set):
            steps_budget[0] -= 1
            trail.append((free, coface))
            found = search(face_set - {free, coface}, trail)
            if found is not None:
                return found
            trail.pop()
            if steps_budget[0] <= 0:
                return None
        return None

    found = search(frozenset(start), [])
    if found is None:
        return None
    remaining = start - {f for pair in found for f in pair}
    maximal = [f for f in remaining if not any(f < g for g in remaining)]
    return CollapseCertificate(tuple(found), SimplicialComplex(maximal))


@st.composite
def small_complexes(draw):
    """Non-pure complexes over at most 7 vertices: up to 5 facets of at
    most 3 vertices, which keeps an exhaustive search small."""
    n = draw(st.integers(1, 7))
    facet = st.frozensets(st.integers(1, n), min_size=1, max_size=3)
    return from_facets(draw(st.lists(facet, min_size=1, max_size=5)))


class TestCollapseOracle:
    @settings(max_examples=120, deadline=None)
    @given(small_complexes(), st.booleans())
    @example(from_facets([{1, 2}, {2, 3}, {1, 3}, {3, 4}]), False)
    @example(from_facets([{1, 2, 3}, {3, 4, 5}, {5, 6}, {1, 6}]), True)
    def test_same_certificates_as_poset_search(self, base, cone):
        # a cone is collapsible, so its search runs deep
        complex_ = from_facets([f | {0} for f in base.facets]) if cone else base
        for target in range(complex_.dim + 1):
            for budget in (0, 1, 2, 5, 10**6):
                got = collapse_search(complex_, target, budget)
                assert got == reference_collapse_search(complex_, target, budget), (
                    target,
                    budget,
                )
                if got is not None:
                    assert replay_collapse(complex_, got)

    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_same_certificates_on_fixtures(self, cx, name):
        complex_ = cx(name)
        for target in range(complex_.dim + 1):
            for budget in (1, 3, 10**6):
                got = collapse_search(complex_, target, budget)
                assert got == reference_collapse_search(complex_, target, budget), (
                    target,
                    budget,
                )


def test_every_cache_is_bounded():
    from lefkit import complexes, lefschetz, monomials

    for module in (complexes, monomials, lefschetz):
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_info"):
                assert obj.cache_info().maxsize is not None, f"{module.__name__}.{name}"


def reference_maximal(facets):
    """The all-pairs maximality filter the constructor used to run."""
    fs = sorted({frozenset(f) for f in facets}, key=sorted)
    return tuple(f for f in fs if not any(f < g for g in fs))


@st.composite
def facet_lists(draw):
    """Facet lists over at most 8 vertices, with subsets of drawn facets and
    repeated facets mixed in, in any order."""
    base = draw(st.lists(st.frozensets(st.integers(0, 7), max_size=5), min_size=1, max_size=8))
    nested = [draw(st.frozensets(st.sampled_from(sorted(f)))) for f in base if f]
    repeats = draw(st.lists(st.sampled_from(base), max_size=3))
    return draw(st.permutations(base + nested + repeats))


class TestMaximalFacets:
    @settings(max_examples=300, deadline=None)
    @given(facet_lists())
    @example([set(), {1, 2}, {1}, {1, 2}])
    @example([set()])
    def test_matches_all_pairs_filter(self, facets):
        cx = SimplicialComplex(facets)
        expected = reference_maximal(facets)
        assert cx.facets == expected
        assert cx == SimplicialComplex(expected)
        assert hash(cx) == hash((cx.vertices, expected))

    def test_long_path_builds_quickly(self):
        t0 = time.perf_counter()
        path = from_facets([{i, i + 1} for i in range(10_000)])
        elapsed = time.perf_counter() - t0
        assert len(path.facets) == 10_000
        assert elapsed < 1.0


def reference_replay(cx, cert):
    """The replay that rescans every remaining face at each step."""
    face_set = {f for f in cx.all_faces() if f}
    for free, coface in cert.steps:
        if free not in face_set or coface not in face_set:
            raise ValueError("missing face")
        if [g for g in face_set if free < g] != [coface]:
            raise ValueError("not free")
        face_set -= {free, coface}
    if SimplicialComplex(face_set) != cert.residual:
        raise ValueError("residual mismatch")
    return True


def replay_verdict(replay, cx, cert):
    try:
        return replay(cx, cert)
    except ValueError:
        return False


class TestReplay:
    path = from_facets([{1, 2}, {2, 3}])
    triangle = from_facets([{1, 2, 3}])

    @pytest.mark.parametrize("complex_, steps, residual", [
        # a face the complex does not have
        (path, (({4}, {3, 4}),), None),
        # a face with two cofaces
        (triangle, (({1}, {1, 2}),), None),
        # a free face paired with a face that does not contain it
        (path, (({1}, {2, 3}),), None),
        # a face paired with a coface two sizes up
        (triangle, (({1}, {1, 2, 3}),), None),
        # valid steps, wrong residual
        (path, (({1}, {1, 2}),), from_facets([{2}])),
    ])
    def test_each_corruption_is_rejected(self, complex_, steps, residual):
        steps = tuple((frozenset(a), frozenset(b)) for a, b in steps)
        if residual is None:
            residual = from_facets([{2, 3}])
        cert = CollapseCertificate(steps, residual)
        with pytest.raises(ValueError):
            replay_collapse(complex_, cert)
        with pytest.raises(ValueError):
            reference_replay(complex_, cert)

    @settings(max_examples=150, deadline=None)
    @given(small_complexes(), st.booleans(), st.data())
    def test_same_verdicts_as_rescanning_replay(self, base, cone, data):
        complex_ = from_facets([f | {0} for f in base.facets]) if cone else base
        cert = collapse_search(complex_, 0, budget=1000)
        assume(cert is not None and cert.steps)
        steps = list(cert.steps)
        faces_ = [f for f in complex_.all_faces() if f]
        i = data.draw(st.integers(0, len(steps) - 1))
        variants = [
            cert,
            CollapseCertificate(tuple(steps[::-1]), cert.residual),
            CollapseCertificate(tuple(steps[:i] + steps[i + 1:]), cert.residual),
            CollapseCertificate(
                tuple(steps[:i] + [(steps[i][0], data.draw(st.sampled_from(faces_)))]
                      + steps[i + 1:]),
                cert.residual),
            CollapseCertificate(tuple(steps[:i]), cert.residual),
        ]
        for variant in variants:
            assert replay_verdict(replay_collapse, complex_, variant) == replay_verdict(
                reference_replay, complex_, variant)
        assert replay_verdict(replay_collapse, complex_, cert)

    def test_long_path_replays_quickly(self):
        path = from_facets([{i, i + 1} for i in range(10_000)])
        cert = collapse_search(path, 0)
        t0 = time.perf_counter()
        assert replay_collapse(path, cert)
        elapsed = time.perf_counter() - t0
        assert len(cert.steps) == 10_000
        assert elapsed < 1.0


# --- the replaced ridge, orientability and colouring code, kept as oracles ----


def reference_ridge_pairs(facets):
    """Index pairs (i < j) of equal-size facets that meet in a ridge, all pairs tried."""
    return [
        (i, j)
        for i in range(len(facets))
        for j in range(i + 1, len(facets))
        if len(facets[i]) == len(facets[j]) == len(facets[i] & facets[j]) + 1
    ]


def reference_ridge_degrees(cx):
    deg = {}
    for f in cx.facets:
        for r in combinations(sorted(f), len(f) - 1):
            deg[frozenset(r)] = deg.get(frozenset(r), 0) + 1
    return deg


def reference_orientable(cx):
    """Orientability read off the top rational homology."""
    st_ = pseudomanifold_status(cx)
    closed = st_.max_ridge_degree <= 2 and st_.boundary is None
    return st_.pure and st_.strongly_connected and closed and homology(cx).rank(cx.dim) == 1


def reference_balanced_coloring(cx):
    """Recursive backtracking over ascending vertices and colours."""
    k = cx.dim + 1
    verts = list(cx.vertices)
    adj = {v: set() for v in verts}
    for a, b in (sorted(e) for e in faces(cx, 1)) if cx.dim >= 1 else ():
        adj[a].add(b)
        adj[b].add(a)
    assignment = {}

    def backtrack(idx):
        if idx == len(verts):
            return True
        v = verts[idx]
        used = {assignment[u] for u in adj[v] if u in assignment}
        for c in range(1, k + 1):
            if c not in used:
                assignment[v] = c
                if backtrack(idx + 1):
                    return True
                del assignment[v]
        return False

    return assignment if backtrack(0) else None


@st.composite
def ridge_complexes(draw):
    """Complexes over up to 8 vertices with up to 9 facets of 1 to 4
    vertices: non-pure ones and singleton facets included."""
    n = draw(st.integers(1, 8))
    facet = st.frozensets(st.integers(1, n), min_size=1, max_size=4)
    return from_facets(draw(st.lists(facet, min_size=1, max_size=9)))


RP2 = [{1, 2, 3}, {1, 3, 4}, {1, 4, 5}, {1, 5, 6}, {1, 2, 6}, {2, 3, 5}, {2, 4, 5},
       {2, 4, 6}, {3, 4, 6}, {3, 5, 6}]
TORUS7 = [{i % 7 + 1, (i + 1) % 7 + 1, (i + 3) % 7 + 1} for i in range(7)] + [
    {i % 7 + 1, (i + 2) % 7 + 1, (i + 3) % 7 + 1} for i in range(7)
]
CLOSED = {
    "S0": [{1}, {2}],
    "C5": [{i, i % 5 + 1} for i in range(1, 6)],
    "TETRA": [set(c) for c in combinations(range(1, 5), 3)],
    "RP2": RP2,
    "TORUS7": TORUS7,
    "S3": [set(c) for c in combinations(range(1, 6), 4)],
}


def every_boundary_rank(complex_):
    """Reduced Betti numbers the replaced way: rank every boundary map, the
    top one included."""
    d = complex_.dim
    rank = [0] + [linalg.rank(boundary_matrix(complex_, k)) for k in range(d + 1)] + [0]
    counts = [len(faces(complex_, k)) for k in range(-1, d + 1)]
    return tuple(counts[i] - rank[i] - rank[i + 1] for i in range(d + 2))


class TestAgainstReplacedCode:
    @settings(max_examples=200, deadline=None)
    @given(ridge_complexes())
    @example(from_facets([{1}]))
    @example(from_facets([{1, 2}, {2, 3}, {1, 3}]))
    def test_ranks_match_every_boundary_rank(self, complex_):
        d = complex_.dim
        expected = every_boundary_rank(complex_)
        assert _reduced_betti(complex_) == expected
        rep = homology(complex_)
        assert rep.ranks == expected
        assert (rep.top_cycle is not None) == (expected[-1] == 1)
        if rep.top_cycle is not None:
            assert rep.top_cycle == linalg.kernel_basis(boundary_matrix(complex_, d)).vectors[0]

    @settings(max_examples=200, deadline=None)
    @given(ridge_complexes(), st.integers(1, 9))
    @example(from_facets([{1}]), 2)
    @example(from_facets([{1, 2}, {2, 3}, {1, 3}]), 9)
    def test_cones_match_every_boundary_rank(self, base, apex):
        # the apex joins every facet, or replaces a vertex it already was
        complex_ = from_facets([f | {apex} for f in base.facets])
        expected = every_boundary_rank(complex_)
        assert expected == (0,) * (complex_.dim + 2) == _reduced_betti(complex_)
        assert homology.__wrapped__(complex_) == HomologyReport(expected, None)

    def test_cones_eliminate_nothing(self, monkeypatch):
        def refuse(_):
            raise AssertionError("a cone needs no elimination")

        monkeypatch.setattr(linalg, "rank", refuse)
        monkeypatch.setattr(linalg, "kernel_basis", refuse)
        for facets in ([{1}], [{1, 2}, {1, 3}], [{1, 2, 3}, {1, 3, 4}, {1, 5}]):
            complex_ = from_facets(facets)
            assert homology.__wrapped__(complex_).ranks == (0,) * (complex_.dim + 2)

    def test_void_complex_is_no_cone(self):
        void = SimplicialComplex([frozenset()])
        assert void.dim == -1
        assert homology.__wrapped__(void) == HomologyReport((1,), (1,))

    @settings(max_examples=300, deadline=None)
    @given(ridge_complexes())
    @example(from_facets([{1}, {2}, {3}]))
    @example(from_facets([{1, 2, 3}, {3, 4}, {5}]))
    def test_ridge_pairs_and_degrees(self, complex_):
        held = _ridges(complex_.facets)
        assert _ridge_pairs(held) == reference_ridge_pairs(complex_.facets)
        assert {r: len(h) for r, h in held.items()} == reference_ridge_degrees(complex_)
        assert pseudomanifold_status(complex_).orientable == reference_orientable(complex_)

    @settings(max_examples=120, deadline=None)
    @given(st.sampled_from(sorted(CLOSED)), st.randoms(use_true_random=False))
    def test_orientability_of_relabelled_closed_pseudomanifolds(self, name, rng):
        verts = sorted(set().union(*CLOSED[name]))
        image = rng.sample(range(1, 3 * len(verts)), len(verts))
        relabel = dict(zip(verts, image))
        complex_ = from_facets([{relabel[v] for v in f} for f in CLOSED[name]])
        got = pseudomanifold_status(complex_)
        assert got.is_pseudomanifold() and got.boundary is None
        assert got.orientable == reference_orientable(complex_) == (name != "RP2")

    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_fixture_orientability(self, cx, name):
        assert pseudomanifold_status(cx(name)).orientable == reference_orientable(cx(name))

    @settings(max_examples=200, deadline=None)
    @given(ridge_complexes())
    @example(from_facets([{2, 6, 8}, {3, 7, 8}, {5, 6, 7}]))  # backtracks past a stale colour
    def test_balanced_coloring_matches_recursion(self, complex_):
        assume(complex_.is_pure())
        got = balanced_coloring(complex_)
        expected = reference_balanced_coloring(complex_)
        assert (got.assignment if got else None) == expected
        if got:
            assert list(got.assignment) == list(expected)


class TestCombinatorialScale:
    def test_pseudomanifold_status_of_3000_cycle(self):
        # the best of three calls, so one slow moment of the machine does
        # not fail the gate
        c3000 = from_facets([{i, (i + 1) % 3000} for i in range(3000)])
        elapsed = []
        for _ in range(3):
            t0 = time.perf_counter()
            status = pseudomanifold_status(c3000)
            elapsed.append(time.perf_counter() - t0)
        assert status.is_pseudomanifold() and status.orientable
        assert min(elapsed) < 0.1

    def test_balanced_coloring_of_long_path_without_recursion(self):
        rho = balanced_coloring(from_facets([{i, i + 1} for i in range(1, 1500)]))
        assert rho.k == 2
        assert [rho.assignment[v] for v in (1, 2, 3, 1500)] == [1, 2, 1, 2]


def relabelled(facets, rng):
    verts = sorted(set().union(*facets))
    relabel = dict(zip(verts, rng.sample(range(1, 5 * len(verts) + 20), len(verts))))
    return from_facets([{relabel[v] for v in f} for f in facets])


def reference_cohen_macaulay(cx):
    """Reisner's scan the replaced way: every face's link, every boundary
    map ranked exactly."""
    for sigma in cx.all_faces():
        lk = link(cx, sigma)
        ranks = every_boundary_rank(lk)
        for i in range(-1, lk.dim):
            if ranks[i + 1]:
                return (False, sigma, i)
    return (True, None, None)


def reference_homology_sphere(cx):
    for sigma in cx.all_faces():
        lk = link(cx, sigma)
        if every_boundary_rank(lk) != (0,) * (lk.dim + 1) + (1,):
            return False
    return True


def check_scans(cx):
    cm = is_cohen_macaulay.__wrapped__(cx)
    assert (cm.holds, cm.witness_face, cm.witness_index) == reference_cohen_macaulay(cx)
    assert is_homology_sphere.__wrapped__(cx) == reference_homology_sphere(cx)


BOWTIE = [{1, 2, 3}, {1, 4, 5}]
XPOLY5 = [set(c) for c in product(*[(2 * i + 1, 2 * i + 2) for i in range(5)])]
BUILT = {"XPOLY5": XPOLY5, "CONE5": [f | {11} for f in XPOLY5]}


class TestCertifiedTopology:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(CLOSED)), st.randoms(use_true_random=False))
    def test_relabelled_closed_complexes(self, name, rng):
        complex_ = relabelled(CLOSED[name], rng)
        assert _reduced_betti(complex_) == every_boundary_rank(complex_)

    @pytest.mark.parametrize("name, ranks", [
        ("RP2", (0, 0, 0, 0)),
        ("TORUS7", (0, 0, 2, 1)),
        ("S3", (0, 0, 0, 0, 1)),
        ("C5", (0, 0, 1)),
    ])
    def test_two_gf2_degrees_take_the_exact_path(self, monkeypatch, name, ranks):
        # over GF(2) both RP² and the torus have homology in degrees 1 and
        # 2, so neither is certified; the spheres are
        calls = []
        exact = linalg.rank
        monkeypatch.setattr(linalg, "rank", lambda m: calls.append(m) or exact(m))
        complex_ = from_facets(CLOSED[name])
        assert _reduced_betti(complex_) == ranks
        assert len(calls) == (complex_.dim + 1 if name in ("RP2", "TORUS7") else 0)

    @settings(max_examples=150, deadline=None)
    @given(ridge_complexes(), st.booleans())
    @example(from_facets(BOWTIE), False)
    @example(from_facets([{1, 2}, {3, 4}]), True)
    def test_scans_match_the_reference_scan(self, complex_, cone):
        if cone:
            complex_ = from_facets([f | {99} for f in complex_.facets])
        check_scans(complex_)

    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_scans_on_fixtures_and_their_cones(self, cx, name):
        check_scans(cx(name))
        check_scans(from_facets([f | {999} for f in cx(name).facets]))

    @pytest.mark.parametrize("name", sorted(CLOSED))
    def test_scans_on_relabelled_closed_complexes(self, name):
        check_scans(relabelled(CLOSED[name], random.Random(name)))

    def test_bowtie_witness_is_a_vertex(self):
        # |σ| = dim - 1: the vertex link is two disjoint edges
        rep = is_cohen_macaulay.__wrapped__(from_facets(BOWTIE))
        assert (rep.holds, rep.witness_face, rep.witness_index) == (False, frozenset({1}), 0)

    @pytest.mark.parametrize("name, cm, sphere", [
        ("OCT", True, True), ("CROSS4", True, True), ("BALL10", True, False),
        ("XPOLY5", True, True), ("CONE5", True, False),
    ])
    def test_scans_eliminate_nothing(self, monkeypatch, cx, name, cm, sphere):
        def refuse(_):
            raise AssertionError("certified ranks need no elimination")

        complex_ = from_facets(BUILT[name]) if name in BUILT else cx(name)
        monkeypatch.setattr(linalg, "rank", refuse)
        monkeypatch.setattr(linalg, "kernel_basis", refuse)
        assert is_cohen_macaulay.__wrapped__(complex_).holds is cm
        assert is_homology_sphere.__wrapped__(complex_) is sphere
