"""Derived complexes: facet-ridge graphs, incidence complexes and the
half-hollow edgewise subdivision.

Vertices of derived complexes are freshly interned ids 1..N; the original
objects (faces, lattice points) are attached as vertex labels.  The graph
primitives live in ``complexes``: facet-ridge edges come from its ridge
map, and 2-colouring runs on its one breadth-first search.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from .complexes import (
    SimplicialComplex,
    _adjacency,
    _compositions,
    _face_compositions,
    _reachable,
    _ridge_pairs,
    _ridges,
    faces,
)
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
    """BFS 2-coloring of an undirected graph given by an adjacency mapping.

    Each component, taken from its least node, is coloured along its
    breadth-first tree; the first edge joining equal colours, scanning
    the tree in visiting order and neighbours in sorted order, yields an
    odd closed walk witnessing failure.  Otherwise returns the two sides.
    """
    color = {}
    for start in sorted(adjacency):
        if start in color:
            continue
        tree = _reachable(adjacency, start)
        for v, u in tree.items():
            color[v] = 0 if u is None else 1 - color[u]
        for u in tree:
            for v in sorted(adjacency[u]):
                if color[v] == color[u]:
                    # neighbours lie at most one BFS level apart, so equal
                    # colours mean equal depths: walk both ends up until
                    # they meet; the joined paths close an odd cycle
                    pu, pv = [u], [v]
                    while pu[-1] != pv[-1]:
                        pu.append(tree[pu[-1]])
                        pv.append(tree[pv[-1]])
                    return BipartiteResult(None, tuple(pu + pv[-2::-1]))
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
    edges = tuple(_ridge_pairs(_ridges(cx.facets)))
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
    new_facets = [{index[g - {v}] for v in g} for g in faces(cx, i)]
    labels = {n + 1: f for n, f in enumerate(lower)}
    return SimplicialComplex(new_facets, labels=labels, name=f"{cx.name}({i})" if cx.name else "")


def hesd(cx: SimplicialComplex, r: int) -> SimplicialComplex:
    """r-fold half-hollow edgewise subdivision.

    Vertices are the level-r lattice points supported on faces of the
    input: the exponent vectors of its degree-r face monomials, built from
    each face's compositions of r.  Each facet F together with a
    level-(r-1) point supported inside F spans the facet
    {a + e_i : i in F}.  Requires pairwise facet intersections of size at
    most 1, checked through the edges each facet holds.  Vertex ids follow
    the lexicographic order on coordinate vectors and carry LatticePoint
    labels.
    """
    if r < 1:
        raise DimensionError("subdivision parameter must be >= 1")
    fs = cx.facets
    holders = {}
    for i, f in enumerate(fs):
        for e in combinations(sorted(f), 2):
            holders.setdefault(e, []).append(i)
    shared = min((held[:2] for held in holders.values() if len(held) > 1), default=None)
    if shared:
        i, j = shared
        raise NotIncidenceLike(
            f"facets {sorted(fs[i])} and {sorted(fs[j])} share more than one vertex"
        )
    ground = cx.vertices
    pos = {v: k for k, v in enumerate(ground)}
    # each point once, as its dense coordinates and its (position, value) pairs
    points = {}
    for vs, combo in _face_compositions(cx, r):
        idxs = [pos[v] for v in vs]
        coords = [0] * len(ground)
        for k, c in zip(idxs, combo):
            coords[k] = c
        points[tuple(coords)] = tuple(zip(idxs, combo))
    verts = sorted(points)
    vid = {points[pt]: k + 1 for k, pt in enumerate(verts)}
    new_facets = set()
    for f in fs:
        idxs = sorted(pos[v] for v in f)
        for base in _compositions(r - 1, (r - 1,) * len(idxs), 0):
            new_facets.add(frozenset(vid[_bump(idxs, base, j)] for j in range(len(idxs))))
    labels = {k + 1: LatticePoint(pt) for k, pt in enumerate(verts)}
    return SimplicialComplex(sorted(new_facets, key=sorted), labels=labels,
                             name=f"hesd({cx.name},{r})" if cx.name else "")


def _bump(idxs, base, j):
    """The (position, value) pairs of base + e_{idxs[j]}, zeros left out."""
    return tuple((k, c + (i == j)) for i, (k, c) in enumerate(zip(idxs, base)) if c or i == j)
