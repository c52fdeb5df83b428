"""Derived complexes: facet-ridge graphs, incidence complexes and the
half-hollow edgewise subdivision.

Vertices of derived complexes are freshly interned ids 1..N; the original
objects (faces, lattice points) are attached as vertex labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .complexes import SimplicialComplex, _adjacency, _ridge_pairs, faces
from .errors import DimensionError, NotIncidenceLike, PurityError


@dataclass(frozen=True)
class FacetRidgeGraph:
    """Graph on the facets of a pure complex, joined along shared ridges.

    ``nodes`` are facets in canonical order; ``edges`` are index pairs.
    ``bipartition`` is a pair of index sets when the graph is bipartite.
    """

    nodes: tuple
    edges: tuple
    bipartition: Optional[tuple]

    def adjacency(self):
        return _adjacency(range(len(self.nodes)), self.edges)


@dataclass(frozen=True)
class LatticePoint:
    """Non-negative integer vector with a fixed coordinate sum (its level)."""

    coords: tuple

    @property
    def level(self) -> int:
        return sum(self.coords)

    @property
    def support(self) -> frozenset:
        return frozenset(i for i, c in enumerate(self.coords) if c)


@dataclass(frozen=True)
class BipartiteResult:
    sides: Optional[tuple]
    odd_cycle: Optional[tuple] = None

    def __bool__(self):
        return self.sides is not None


def bipartition_of(adjacency: dict) -> BipartiteResult:
    """BFS 2-coloring of a graph given by an adjacency mapping.

    Returns the two sides, or an odd closed walk witnessing failure.
    """
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
                    # walk both endpoints to the root; the joined paths
                    # form an odd closed walk containing an odd cycle
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
                    cycle = pu[: cut_u + 1] + pv[:cut_v][::-1]
                    return BipartiteResult(None, tuple(cycle))
    side0 = tuple(sorted(v for v, c in color.items() if c == 0))
    side1 = tuple(sorted(v for v, c in color.items() if c == 1))
    return BipartiteResult((side0, side1))


def is_bipartite(graph) -> BipartiteResult:
    """Bipartiteness of a graph-like input.

    Accepts an adjacency mapping, a FacetRidgeGraph, or a simplicial
    complex of dimension at most 1 (vertices and edges).
    """
    if isinstance(graph, FacetRidgeGraph):
        return bipartition_of(graph.adjacency())
    if isinstance(graph, SimplicialComplex):
        if graph.dim > 1:
            raise DimensionError("is_bipartite expects a graph")
        edges = [e for e in graph.facets if len(e) == 2]
        return bipartition_of(_adjacency(graph.vertices, edges))
    return bipartition_of(graph)


def facet_ridge_graph(cx: SimplicialComplex) -> FacetRidgeGraph:
    """Facets joined whenever they meet in a ridge."""
    if not cx.is_pure():
        raise PurityError("facet-ridge graph needs a pure complex")
    edges = tuple(_ridge_pairs(cx.facets))
    bip = bipartition_of(_adjacency(range(len(cx.facets)), edges))
    return FacetRidgeGraph(cx.facets, edges, bip.sides if bip else None)


def incidence_complex(cx: SimplicialComplex, i: int) -> SimplicialComplex:
    """Complex whose vertices are (i-1)-faces and whose facets collect the
    (i-1)-subfaces of each i-face.

    The boundary case i == dim is admitted: vertices are ridges and facets
    list the ridges of each facet.
    """
    if not 1 <= i <= cx.dim:
        raise DimensionError(f"incidence index {i} out of range 1..{cx.dim}")
    lower = faces(cx, i - 1)
    index = {f: n + 1 for n, f in enumerate(lower)}
    new_facets = []
    for g in faces(cx, i):
        g = sorted(g)
        sub = [frozenset(g[:p] + g[p + 1:]) for p in range(len(g))]
        new_facets.append({index[s] for s in sub})
    labels = {n + 1: f for n, f in enumerate(lower)}
    return SimplicialComplex(new_facets, labels=labels, name=f"{cx.name}({i})" if cx.name else "")


def _level_points(n: int, r: int):
    """All vectors of length n with non-negative entries summing to r, lex order."""
    if n == 0:
        if r == 0:
            yield ()
        return
    for head in range(r + 1):
        for tail in _level_points(n - 1, r - head):
            yield (head,) + tail


def hesd(cx: SimplicialComplex, r: int) -> SimplicialComplex:
    """r-fold half-hollow edgewise subdivision.

    Vertices are the level-r lattice points supported on faces of the
    input; each facet F together with a level-(r-1) point supported inside
    F spans the facet {a + e_i : i in F}.  Requires pairwise facet
    intersections of size at most 1.  Vertex ids follow the lexicographic
    order on coordinate vectors and carry LatticePoint labels.
    """
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

    def supported(pt):
        return cx.has_face(frozenset(ground[k] for k, c in enumerate(pt) if c))

    verts = [pt for pt in _level_points(n, r) if supported(pt)]
    vid = {pt: k + 1 for k, pt in enumerate(verts)}
    new_facets = set()
    for f in fs:
        idxs = sorted(pos[v] for v in f)
        for base in _points_supported_in(idxs, n, r - 1):
            facet = frozenset(vid[_bump(base, k)] for k in idxs)
            new_facets.add(facet)
    labels = {k + 1: LatticePoint(pt) for k, pt in enumerate(verts)}
    return SimplicialComplex(sorted(new_facets, key=sorted), labels=labels,
                             name=f"hesd({cx.name},{r})" if cx.name else "")


def _bump(pt, k):
    out = list(pt)
    out[k] += 1
    return tuple(out)


def _points_supported_in(idxs, n, r):
    """Level-r points of length n supported inside the index set."""
    for combo in _level_points(len(idxs), r):
        pt = [0] * n
        for k, c in zip(idxs, combo):
            pt[k] = c
        yield tuple(pt)
