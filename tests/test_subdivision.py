"""Facet-ridge graphs, incidence complexes and hesd."""

import time

import pytest
from hypothesis import example, given, settings, strategies as st

from lefkit.complexes import SimplicialComplex, balanced_coloring, faces, from_facets
from lefkit.errors import DimensionError, NotIncidenceLike, PurityError
from lefkit.subdivision import (
    BipartiteResult,
    LatticePoint,
    bipartition_of,
    facet_ridge_graph,
    hesd,
    incidence_complex,
    is_bipartite,
)
from lefkit import fixtures


class TestFacetRidgeGraph:
    def test_oct_is_cube_skeleton(self, cx):
        g = facet_ridge_graph(cx("OCT"))
        assert len(g.nodes) == 8
        assert len(g.edges) == 12
        degrees = [len(v) for v in g.adjacency().values()]
        assert degrees == [3] * 8
        assert g.bipartition is not None
        assert sorted(map(len, g.bipartition)) == [4, 4]

    @pytest.mark.parametrize("name,n", [("C3", 3), ("C4", 4)])
    def test_cycle_graphs(self, cx, name, n):
        g = facet_ridge_graph(cx(name))
        assert len(g.nodes) == n and len(g.edges) == n
        assert all(len(v) == 2 for v in g.adjacency().values())

    def test_fan4_edges_along_ridges(self, cx):
        g = facet_ridge_graph(cx("FAN4"))
        shared = {
            frozenset(g.nodes[a] & g.nodes[b]) for a, b in g.edges
        }
        assert shared == {frozenset({2, 4}), frozenset({2, 5}), frozenset({4, 5})}

    def test_needs_pure(self):
        with pytest.raises(PurityError):
            facet_ridge_graph(from_facets([{1, 2, 3}, {4, 5}]))


class TestIsBipartite:
    def test_c4(self, cx):
        res = is_bipartite(cx("C4"))
        assert res
        assert res.sides == ((1, 3), (2, 4))

    def test_c3_witness(self, cx):
        res = is_bipartite(cx("C3"))
        assert not res
        cycle = res.odd_cycle
        assert len(cycle) % 2 == 1 and len(cycle) >= 3
        edges = {frozenset(e) for e in cx("C3").facets}
        for i in range(len(cycle)):
            assert frozenset({cycle[i], cycle[(i + 1) % len(cycle)]}) in edges

    def test_cube_adjacency_input(self):
        adj = {i: set() for i in range(8)}
        for i in range(8):
            for b in range(3):
                adj[i].add(i ^ (1 << b))
        res = is_bipartite(adj)
        assert res and sorted(map(len, res.sides)) == [4, 4]

    def test_witness_is_simple_odd_cycle(self):
        import random

        rng = random.Random(11)
        for _ in range(20):
            n = rng.randint(3, 9)
            edges = {frozenset(e) for e in [(i, i + 1) for i in range(n - 1)]}
            for _ in range(rng.randint(0, 6)):
                a, b = rng.sample(range(n), 2)
                edges.add(frozenset((a, b)))
            adj = {i: set() for i in range(n)}
            for e in edges:
                a, b = sorted(e)
                adj[a].add(b)
                adj[b].add(a)
            res = is_bipartite(adj)
            if res:
                s0, s1 = res.sides
                for e in edges:
                    a, b = sorted(e)
                    assert (a in s0) != (b in s0)
            else:
                cycle = res.odd_cycle
                assert len(cycle) % 2 == 1 and len(cycle) >= 3
                assert len(set(cycle)) == len(cycle)
                for i in range(len(cycle)):
                    assert frozenset((cycle[i], cycle[(i + 1) % len(cycle)])) in edges


class TestIncidenceComplex:
    def test_graph_incidence_is_identity(self, cx):
        g = cx("C4")
        inc = incidence_complex(g, 1)
        # vertices are the old vertices, facets the old edges (as label sets)
        facet_labels = {frozenset(inc.labels[v] for v in f) for f in inc.facets}
        assert facet_labels == {frozenset(frozenset({x}) for x in e) for e in g.facets}

    def test_fan4_top_incidence(self, cx):
        inc = incidence_complex(cx("FAN4"), 2)
        assert len(inc.vertices) == 9
        assert len(inc.facets) == 4
        for i, f in enumerate(inc.facets):
            for g in inc.facets[i + 1:]:
                assert len(f & g) <= 1

    @pytest.mark.parametrize("name", ["OCT", "CROSS4", "FAN4", "BALL10"])
    def test_count_invariants(self, cx, name):
        complex_ = cx(name)
        for i in range(1, complex_.dim + 1):
            inc = incidence_complex(complex_, i)
            assert len(inc.vertices) == len(faces(complex_, i - 1))
            assert len(inc.facets) == len(faces(complex_, i))
            for a, f in enumerate(inc.facets):
                for g in inc.facets[a + 1:]:
                    assert len(f & g) <= 1

    def test_out_of_range(self, cx):
        with pytest.raises(DimensionError):
            incidence_complex(cx("OCT"), 3)
        with pytest.raises(DimensionError):
            incidence_complex(cx("OCT"), 0)


class TestHesd:
    def test_single_edge_becomes_path(self, cx):
        sub = hesd(cx("EDGE"), 2)
        assert len(sub.vertices) == 3
        assert len(sub.facets) == 2
        coords = sorted(lab.coords for lab in sub.labels.values())
        assert coords == [(0, 2), (1, 1), (2, 0)]
        degrees = {}
        for f in sub.facets:
            for v in f:
                degrees[v] = degrees.get(v, 0) + 1
        assert sorted(degrees.values()) == [1, 1, 2]

    def test_r1_is_identity_for_graphs(self, cx):
        g = cx("C4")
        sub = hesd(g, 1)
        mapped = {
            frozenset(next(iter(sub.labels[v].support)) for v in f) for f in sub.facets
        }
        # supports are positions into the sorted vertex list
        order = g.vertices
        assert mapped == {frozenset(order.index(x) for x in e) for e in g.facets}

    def test_full_simplex_r4(self):
        simplex = from_facets([{1, 2, 3}])
        sub = hesd(simplex, 4)
        assert len(sub.vertices) == 15
        assert len(sub.facets) == 10
        assert sub.is_pure() and sub.dim == 2

    @pytest.mark.parametrize("name", fixtures.GRAPH_FIXTURES)
    @pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 6])
    def test_graph_counts(self, cx, name, r):
        g = cx(name)
        v, e = len(g.vertices), len(g.facets)
        sub = hesd(g, r)
        assert len(sub.vertices) == v + e * (r - 1)
        assert len(sub.facets) == e * r

    def test_labels_are_level_r(self, cx):
        sub = hesd(cx("PATH3"), 3)
        assert all(lab.level == 3 for lab in sub.labels.values())

    def test_facet_sizes_follow_supporting_faces(self, cx):
        inc = incidence_complex(cx("FAN4"), 2)
        sub = hesd(inc, 2)
        assert sub.is_pure() and sub.dim == inc.dim

    def test_rejects_shared_edges(self):
        glued = from_facets([{1, 2, 3}, {2, 3, 4}])
        with pytest.raises(NotIncidenceLike):
            hesd(glued, 2)

    def test_rejects_r0(self, cx):
        with pytest.raises(DimensionError):
            hesd(cx("EDGE"), 0)


class TestBalancedBipartiteEquivalence:
    @pytest.mark.parametrize("name", fixtures.DECLARED_SPHERES)
    def test_balanced_iff_bipartite_ridge_graph(self, cx, name):
        complex_ = cx(name)
        coloring = balanced_coloring(complex_)
        graph = facet_ridge_graph(complex_)
        assert (coloring is not None) == (graph.bipartition is not None)

    def test_c3_unbalanced_and_odd(self, cx):
        assert balanced_coloring(cx("C3")) is None
        assert facet_ridge_graph(cx("C3")).bipartition is None


# --- the replaced graph and hesd code, kept as oracles ------------------------


def reference_bipartition(adjacency):
    """The BFS 2-colouring with its own list.pop(0) queue and parent map."""
    color = {}
    parent = {}
    for start in sorted(adjacency):
        if start in color:
            continue
        color[start] = 0
        parent[start] = None
        queue = [start]
        while queue:
            u = queue.pop(0)
            for v in sorted(adjacency[u]):
                if v not in color:
                    color[v] = 1 - color[u]
                    parent[v] = u
                    queue.append(v)
                elif color[v] == color[u]:
                    pu = []
                    x = u
                    while x is not None:
                        pu.append(x)
                        x = parent[x]
                    pv = []
                    x = v
                    while x is not None:
                        pv.append(x)
                        x = parent[x]
                    common = set(pu) & set(pv)
                    cut_u = next(i for i, x in enumerate(pu) if x in common)
                    cut_v = next(i for i, x in enumerate(pv) if x in common)
                    return BipartiteResult(None, tuple(pu[: cut_u + 1] + pv[:cut_v][::-1]))
    side0 = tuple(sorted(v for v, c in color.items() if c == 0))
    side1 = tuple(sorted(v for v, c in color.items() if c == 1))
    return BipartiteResult((side0, side1))


def reference_level_points(n, r):
    """All vectors of length n with non-negative entries summing to r, lex order."""
    if n == 0:
        if r == 0:
            yield ()
        return
    for head in range(r + 1):
        for tail in reference_level_points(n - 1, r - head):
            yield (head,) + tail


def reference_hesd(cx, r):
    """hesd over every level-r point of N^n, filtered by has_face, with the
    all-pairs facet intersection check."""
    if r < 1:
        raise DimensionError("subdivision parameter must be >= 1")
    fs = cx.facets
    for i in range(len(fs)):
        for j in range(i + 1, len(fs)):
            if len(fs[i] & fs[j]) > 1:
                raise NotIncidenceLike(
                    f"facets {sorted(fs[i])} and {sorted(fs[j])} share more than one vertex"
                )
    ground = cx.vertices
    pos = {v: k for k, v in enumerate(ground)}
    n = len(ground)
    verts = [
        pt for pt in reference_level_points(n, r)
        if cx.has_face(frozenset(ground[k] for k, c in enumerate(pt) if c))
    ]
    vid = {pt: k + 1 for k, pt in enumerate(verts)}
    new_facets = set()
    for f in fs:
        idxs = sorted(pos[v] for v in f)
        for combo in reference_level_points(len(idxs), r - 1):
            base = [0] * n
            for k, c in zip(idxs, combo):
                base[k] = c
            bumped = []
            for k in idxs:
                pt = list(base)
                pt[k] += 1
                bumped.append(vid[tuple(pt)])
            new_facets.add(frozenset(bumped))
    labels = {k + 1: LatticePoint(pt) for k, pt in enumerate(verts)}
    return SimplicialComplex(sorted(new_facets, key=sorted), labels=labels,
                             name=f"hesd({cx.name},{r})" if cx.name else "")


@st.composite
def graphs(draw):
    """Undirected adjacency mappings on up to 9 nodes, often disconnected,
    with isolated nodes."""
    n = draw(st.integers(1, 9))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=14))
    adj = {u: set() for u in range(n)}
    for a, b in pairs:
        if a != b:
            adj[a].add(b)
            adj[b].add(a)
    return adj


@st.composite
def sparse_complexes(draw):
    """Complexes over up to 7 vertices whose facets, of 1 to 3 vertices,
    mostly meet in at most one vertex; non-pure ones and singleton facets
    included, and sometimes two facets share an edge."""
    n = draw(st.integers(1, 7))
    facet = st.frozensets(st.integers(1, n), min_size=1, max_size=3)
    return from_facets(draw(st.lists(facet, min_size=1, max_size=5)), name=draw(st.sampled_from(["", "X"])))


def hesd_outcome(fn, cx, r):
    try:
        return fn(cx, r).to_json_dict()
    except NotIncidenceLike as exc:
        return ("NotIncidenceLike", str(exc))


class TestAgainstReplacedCode:
    @settings(max_examples=300, deadline=None)
    @given(graphs())
    @example({0: set()})
    @example({0: {1, 2}, 1: {0, 2}, 2: {0, 1}, 3: {4}, 4: {3}})
    @example({0: {1}, 1: {0}, 2: {3, 4}, 3: {2, 4}, 4: {2, 3}})
    def test_bipartition_matches_pop0_queue(self, adj):
        got = bipartition_of(adj)
        assert got == reference_bipartition(adj)

    @pytest.mark.parametrize("name", fixtures.FIXTURE_NAMES)
    def test_facet_ridge_bipartitions_match(self, cx, name):
        complex_ = cx(name)
        if complex_.is_pure():
            graph = facet_ridge_graph(complex_)
            assert bipartition_of(graph.adjacency()) == reference_bipartition(graph.adjacency())

    @settings(max_examples=300, deadline=None)
    @given(sparse_complexes(), st.integers(1, 4))
    @example(from_facets([{1}, {2}, {3}]), 3)
    @example(from_facets([{1, 2, 3}, {3, 4}, {5}]), 2)
    @example(from_facets([{1, 2}, {3, 4, 5}, {2, 4, 5}, {1, 3, 4}]), 2)
    def test_hesd_matches_level_point_scan(self, complex_, r):
        assert hesd_outcome(hesd, complex_, r) == hesd_outcome(reference_hesd, complex_, r)

    @pytest.mark.parametrize("name", fixtures.FIXTURE_NAMES)
    def test_hesd_of_fixtures_and_incidence_complexes(self, cx, name):
        complex_ = cx(name)
        cases = [complex_] + [incidence_complex(complex_, i) for i in range(1, complex_.dim + 1)]
        for case in cases:
            for r in (1, 2, 3):
                assert hesd_outcome(hesd, case, r) == hesd_outcome(reference_hesd, case, r)


def cycle(n):
    return from_facets([{i, (i + 1) % n} for i in range(n)])


class TestScale:
    def test_hesd_of_40_cycle_at_r4(self):
        c40 = cycle(40)
        t0 = time.perf_counter()
        sub = hesd(c40, 4)
        elapsed = time.perf_counter() - t0
        assert len(sub.vertices) == 160 and len(sub.facets) == 160
        assert elapsed < 0.1

    def test_hesd_of_1000_cycle_without_recursion(self):
        sub = hesd(cycle(1000), 1)
        assert len(sub.vertices) == 1000 and len(sub.facets) == 1000

    def test_facet_ridge_graph_of_3000_cycle(self):
        graph = facet_ridge_graph(cycle(3000))
        assert len(graph.edges) == 3000
        assert graph.bipartition is not None
