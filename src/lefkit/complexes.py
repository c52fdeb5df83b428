"""Simplicial complexes, their topological predicates and the library's
combinatorial primitives.

A complex is stored by its inclusion-maximal facets over integer vertex
ids.  All operations are pure and complexes are immutable, so values can
be shared freely.  Homology is rational throughout, which pins
characteristic zero for every downstream Lefschetz statement: Betti
numbers over GF(2) stand for the rational ones only where the Euler
characteristic certifies them (``_reduced_betti``).
The one ridge map (``_ridges``), the one breadth-first search
(``_reachable``) and the face compositions behind face monomials and
hesd lattice points (``_face_compositions``) live here.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Optional

from . import linalg
from .errors import (
    DimensionError,
    InvalidComplex,
    NotAFace,
    ParseError,
    PurityError,
    RangeError,
)


class SimplicialComplex:
    """A simplicial complex given by its facets.

    Facets are stored sorted (lexicographically by sorted vertex ids) and
    duplicate-free; no facet contains another.  ``labels`` optionally maps
    vertex ids to payload objects (faces, lattice points) for derived
    complexes and is ignored by equality.
    """

    __slots__ = ("vertices", "facets", "labels", "name", "meta", "_hash")

    def __init__(self, facets, labels=None, name="", meta=None):
        fs = sorted({frozenset(f) for f in facets}, key=sorted)
        holders = {}
        for f in fs:
            for v in f:
                holders.setdefault(v, []).append(f)
        # a facet lies only in facets holding all its vertices: test the fewest
        maximal = [
            f for f in fs
            if not any(f < g for g in min((holders[v] for v in f), key=len, default=fs))
        ]
        self.facets = tuple(maximal)
        verts = set()
        for f in maximal:
            verts.update(f)
        for v in verts:
            if not isinstance(v, int) or v < 0:
                raise InvalidComplex(f"vertex ids must be non-negative integers, got {v!r}")
        self.vertices = tuple(sorted(verts))
        self.labels = dict(labels) if labels else None
        self.name = name
        self.meta = dict(meta) if meta else {}
        self._hash = hash((self.vertices, self.facets))

    @classmethod
    def _trusted(cls, facets) -> "SimplicialComplex":
        """A complex over facets the library derived itself, already
        distinct, inclusion-maximal and in the constructor's sorted order,
        skipping the constructor's checks: a link's sets f - σ over the
        facets f ⊇ σ in order (see ``link``)."""
        cx = object.__new__(cls)
        cx.facets = tuple(facets)
        cx.vertices = tuple(sorted(frozenset().union(*cx.facets)))
        cx.labels = None
        cx.name = ""
        cx.meta = {}
        cx._hash = hash((cx.vertices, cx.facets))
        return cx

    @property
    def dim(self) -> int:
        return max(len(f) for f in self.facets) - 1

    def is_pure(self) -> bool:
        return len({len(f) for f in self.facets}) == 1

    def all_faces(self) -> tuple:
        return _all_faces(self)

    def has_face(self, sigma) -> bool:
        s = frozenset(sigma)
        return any(s <= f for f in self.facets)

    def __eq__(self, other):
        return (
            isinstance(other, SimplicialComplex)
            and self.vertices == other.vertices
            and self.facets == other.facets
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        tag = self.name or f"{len(self.facets)} facets"
        return f"SimplicialComplex({tag}, dim={self.dim})"

    # --- JSON interchange ----------------------------------------------

    def to_json_dict(self) -> dict:
        out = {
            "name": self.name,
            "vertices": list(self.vertices),
            "facets": [sorted(f) for f in self.facets],
            "meta": self.meta,
        }
        if self.labels is not None:
            out["labels"] = {str(v): _label_json(lab) for v, lab in sorted(self.labels.items())}
        return out

    @classmethod
    def from_json_dict(cls, obj: dict) -> "SimplicialComplex":
        try:
            cx = from_facets(obj["facets"], obj.get("name", ""), obj.get("meta"))
            declared = set(obj.get("vertices", cx.vertices))
        except (KeyError, TypeError) as exc:
            raise ParseError(f"bad complex JSON: {exc}") from exc
        if declared and not set(cx.vertices) <= declared:
            raise ParseError("facet vertices missing from declared vertex list")
        return cx


def _label_json(lab):
    if isinstance(lab, frozenset):
        return sorted(lab)
    if hasattr(lab, "coords"):
        return list(lab.coords)
    return lab


def load_complex(path) -> SimplicialComplex:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: {exc}") from exc
    return SimplicialComplex.from_json_dict(obj)


@dataclass(frozen=True)
class FHProfile:
    """Face counts and their h-transform."""

    f: tuple
    h: tuple
    h_degree: int


@dataclass(frozen=True)
class HomologyReport:
    """Reduced rational Betti numbers, indexed -1..dim.

    ``top_cycle`` is a generator of the top kernel (an orientation) when
    the top homology has rank one.
    """

    ranks: tuple
    top_cycle: Optional[tuple] = None

    def rank(self, i: int) -> int:
        if not -1 <= i <= len(self.ranks) - 2:
            raise DimensionError(f"no homology in degree {i} of a {len(self.ranks) - 2}-complex")
        return self.ranks[i + 1]


@dataclass(frozen=True)
class Coloring:
    """Proper coloring of the 1-skeleton with colors 1..k."""

    assignment: dict
    k: int

    def color_class(self, c: int):
        return frozenset(v for v, col in self.assignment.items() if col == c)

    def __hash__(self):
        return hash((frozenset(self.assignment.items()), self.k))


@dataclass(frozen=True)
class CMReport:
    holds: bool
    witness_face: Optional[frozenset] = None
    witness_index: Optional[int] = None

    def __bool__(self):
        return self.holds


@dataclass(frozen=True)
class PseudomanifoldStatus:
    pure: bool
    strongly_connected: bool
    max_ridge_degree: int
    boundary: Optional[SimplicialComplex]
    orientable: bool

    def is_pseudomanifold(self) -> bool:
        return self.pure and self.strongly_connected and self.max_ridge_degree <= 2


@dataclass(frozen=True)
class CollapseCertificate:
    """Replayable sequence of elementary collapses.

    Each step removes a free face together with the unique face strictly
    containing it; ``residual`` is the complex left after all steps.
    """

    steps: tuple
    residual: SimplicialComplex


def from_facets(facet_list, name="", meta=None) -> SimplicialComplex:
    """Canonical complex from a list of vertex sets.

    Facets contained in other facets are dropped; the empty complex is
    rejected.
    """
    facet_list = list(facet_list)
    if not facet_list:
        raise InvalidComplex("a complex needs at least one facet")
    for f in facet_list:
        fs = frozenset(f)
        if not fs:
            raise InvalidComplex("empty facet")
    return SimplicialComplex(facet_list, name=name, meta=meta)


def _compositions(total, bounds, least=1):
    """Tuples of parts from least (0 or 1) up to their slot's bound,
    summing to total, in lex order."""
    if not bounds:
        if total == 0:
            yield ()
        return
    rest = bounds[1:]
    lo = max(least, total - sum(rest))
    hi = min(bounds[0], total - least * len(rest))
    for head in range(lo, hi + 1):
        for tail in _compositions(total - head, rest, least):
            yield (head,) + tail


def _face_compositions(cx: SimplicialComplex, k: int, caps=None):
    """The degree-k monomials supported on faces, exponents below caps, as
    (sorted face, exponents) pairs; a vertex without a cap is bounded by k."""
    shared = {}  # faces with equal bounds share their compositions
    for face in _all_faces(cx):
        if len(face) <= k:
            vs = sorted(face)
            bounds = tuple(min(k, caps.get(v, k + 1) - 1) if caps else k for v in vs)
            if bounds not in shared:
                shared[bounds] = tuple(_compositions(k, bounds))
            for combo in shared[bounds]:
                yield vs, combo


@lru_cache(maxsize=1024)
def _all_faces(cx: SimplicialComplex) -> tuple:
    seen = {frozenset()}
    for f in cx.facets:
        f = sorted(f)
        for k in range(1, len(f) + 1):
            seen.update(frozenset(c) for c in combinations(f, k))
    return tuple(sorted(seen, key=lambda s: (len(s), sorted(s))))


def faces(cx: SimplicialComplex, k: int):
    """All k-dimensional faces, sorted; ``faces(cx, -1) == [frozenset()]``."""
    if not -1 <= k <= cx.dim:
        raise DimensionError(f"no faces of dimension {k} in a {cx.dim}-complex")
    return [s for s in _all_faces(cx) if len(s) == k + 1]


def fh_profile(cx: SimplicialComplex) -> FHProfile:
    """f-vector (starting at f_{-1}=1) and h-vector via the exact transform."""
    d = cx.dim
    fvec = [len([s for s in _all_faces(cx) if len(s) == i]) for i in range(d + 2)]
    # expand sum_i f_{i-1} (x-1)^{d+1-i}; h_i is the coefficient of x^{d+1-i}
    coeffs = [0] * (d + 2)
    for i in range(d + 2):
        m = d + 1 - i
        for t in range(m + 1):
            coeffs[t] += fvec[i] * math.comb(m, t) * (-1) ** (m - t)
    h = tuple(coeffs[d + 1 - i] for i in range(d + 2))
    h_degree = max((i for i, v in enumerate(h) if v != 0), default=0)
    return FHProfile(tuple(fvec), h, h_degree)


def link(cx: SimplicialComplex, sigma) -> SimplicialComplex:
    """Link of a face, presented by its maximal elements.

    The sets f - σ over the facets f ⊇ σ are distinct and maximal (f - σ ⊂
    g - σ would give f ⊂ g), and removing σ from two sorted facets that
    hold it keeps their order, so the link is built trusted."""
    s = frozenset(sigma)
    rest = [f - s for f in cx.facets if s <= f]
    if not rest:
        raise NotAFace(f"{sorted(s)} is not a face")
    return SimplicialComplex._trusted(rest)


def boundary_matrix(cx: SimplicialComplex, k: int) -> linalg.ExactMatrix:
    """Boundary map from k-chains to (k-1)-chains with the standard signs.

    Rows are (k-1)-faces and columns k-faces, both in the canonical sorted
    order; the reduced complex includes the empty face in degree -1.
    """
    lo = faces(cx, k - 1) if k - 1 >= -1 else []
    hi = faces(cx, k) if k <= cx.dim else []
    lo_index = {f: i for i, f in enumerate(lo)}
    entries = {}
    for j, f in enumerate(hi):
        for pos, v in enumerate(sorted(f)):
            entries[(lo_index[f - {v}], j)] = (-1) ** pos
    return linalg.ExactMatrix(len(lo), len(hi), entries)


def _reduced_betti(cx: SimplicialComplex) -> tuple:
    """Reduced rational Betti numbers, indexed -1..dim, certified over GF(2).

    Each boundary map is ranked over GF(2) on ``int`` bitmask columns.
    That rank is at most the rational one, so each rational Betti number
    is at most its GF(2) one, and both alternate in sum to the reduced
    Euler characteristic Σ (-1)^i f_i.  So when the GF(2) numbers vanish
    outside one degree, the rational ones vanish there too and equal them
    in it.  Otherwise (RP², the torus) every boundary map is ranked
    exactly."""
    d = cx.dim
    levels = [set() for _ in range(d + 2)]  # faces as sorted tuples, by size
    for f in cx.facets:
        vs = sorted(f)
        for k in range(len(vs) + 1):
            levels[k].update(combinations(vs, k))
    counts = [len(level) for level in levels]
    ranks = [0] * (d + 3)  # ranks[k]: the boundary map on the faces of size k
    for k in range(1, d + 2):
        bit = {t: 1 << i for i, t in enumerate(levels[k - 1])}
        ranks[k] = linalg._rank_gf2(
            sum(map(bit.__getitem__, combinations(t, k - 1))) for t in levels[k]
        )
    betti = [counts[k] - ranks[k] - ranks[k + 1] for k in range(d + 2)]
    if sum(map(bool, betti)) <= 1:
        return tuple(betti)
    ranks[1:d + 2] = [linalg.rank(boundary_matrix(cx, k)) for k in range(d + 1)]
    return tuple(counts[k] - ranks[k] - ranks[k + 1] for k in range(d + 2))


@lru_cache(maxsize=1024)
def homology(cx: SimplicialComplex) -> HomologyReport:
    """Reduced rational homology: the Betti numbers of ``_reduced_betti``
    and, when the top homology has rank one, the top cycle, the exact
    kernel vector of the top boundary map.  A complex whose facets share a
    vertex is a cone, which is contractible, so its reduced homology
    vanishes and nothing is computed; the void complex {∅} has no vertex
    to share."""
    d = cx.dim
    if frozenset.intersection(*cx.facets):
        return HomologyReport((0,) * (d + 2))
    ranks = _reduced_betti(cx)
    top_cycle = None
    if ranks[-1] == 1:
        top_cycle = linalg.kernel_basis(boundary_matrix(cx, d)).vectors[0]
    return HomologyReport(ranks, top_cycle)


def _links(cx: SimplicialComplex):
    """Each face σ in the order of ``_all_faces`` with its link, or with
    None where the link is a cone: the facets through σ share a vertex
    outside σ.  A cone is acyclic, so it is never a Reisner witness and
    never a homology sphere, and it is not built."""
    for sigma in _all_faces(cx):
        star = [f for f in cx.facets if sigma <= f]
        if len(frozenset.intersection(*star)) > len(sigma):
            yield sigma, None
        else:
            yield sigma, SimplicialComplex._trusted([f - sigma for f in star])


@lru_cache(maxsize=64)
def is_cohen_macaulay(cx: SimplicialComplex) -> CMReport:
    """Reisner's criterion: links have no reduced homology below top dimension.

    The scan stops at the faces σ with |σ| ≥ dim: their links have
    dimension at most 0, and a nonempty complex has no reduced homology
    in degree -1."""
    d = cx.dim
    for sigma, lk in _links(cx):
        if len(sigma) >= d:
            break
        if lk is None:
            continue
        for i, b in enumerate(_reduced_betti(lk)[:-1], -1):
            if b:
                return CMReport(False, sigma, i)
    return CMReport(True)


def _ridges(facets) -> dict:
    """Each ridge f - {v} of the facets, mapped to the ascending indices of
    the facets holding it: its degree is the length of the list.  Facets
    sharing a ridge have equal size and share no other ridge."""
    held = {}
    for i, f in enumerate(facets):
        for v in f:
            held.setdefault(f - {v}, []).append(i)
    return held


def _ridge_pairs(held: dict):
    """Index pairs (i < j) of facets meeting in a ridge, ascending."""
    return sorted(p for h in held.values() for p in combinations(h, 2))


def _adjacency(nodes, edges):
    """Neighbour sets of the graph on nodes with the given two-element edges."""
    adj = {u: set() for u in nodes}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    return adj


def _reachable(adj, start) -> dict:
    """Breadth-first spanning tree of start's component in an undirected
    adjacency mapping: each reachable node mapped to its parent (the root
    to None), in visiting order, with neighbours visited in sorted order."""
    tree = {start: None}
    order = [start]
    for u in order:
        for v in sorted(adj[u]):
            if v not in tree:
                tree[v] = u
                order.append(v)
    return tree


def _orientable(facets, held, tree) -> bool:
    """Whether a closed, strongly connected pseudomanifold is orientable:
    facet signs fixed along a spanning tree of its facet-ridge graph
    cancel on every ridge.  Its top rational homology is then
    one-dimensional, and zero otherwise."""

    def sign(i, r):  # of ridge r in the boundary of facet i
        (v,) = facets[i] - r
        return (-1) ** sum(u < v for u in r)

    orient = dict.fromkeys(tree, 1)
    for i, p in tree.items():
        if p is not None:
            r = facets[i] & facets[p]
            orient[i] = -orient[p] * sign(p, r) * sign(i, r)
    return all(orient[i] * sign(i, r) == -orient[j] * sign(j, r) for r, (i, j) in held.items())


def pseudomanifold_status(cx: SimplicialComplex) -> PseudomanifoldStatus:
    """Purity, strong connectivity, ridge degrees, boundary and orientability,
    read from the ridge map and one BFS of the facet-ridge graph."""
    pure = cx.is_pure()
    held = _ridges(cx.facets)
    adj = _adjacency(range(len(cx.facets)), _ridge_pairs(held))
    tree = _reachable(adj, 0)
    strongly_connected = len(tree) == len(cx.facets)
    max_deg = max(map(len, held.values()))
    boundary_ridges = [r for r, h in held.items() if len(h) == 1]
    boundary = SimplicialComplex(boundary_ridges) if boundary_ridges else None
    orientable = (pure and strongly_connected and max_deg <= 2 and boundary is None
                  and _orientable(cx.facets, held, tree))
    return PseudomanifoldStatus(pure, strongly_connected, max_deg, boundary, orientable)


@lru_cache(maxsize=64)
def is_homology_sphere(cx: SimplicialComplex) -> bool:
    """True when every link has the rational homology of a sphere of its dimension."""
    for _, lk in _links(cx):
        if lk is None:
            return False
        *below, top = _reduced_betti(lk)
        if top != 1 or any(below):
            return False
    return True


def one_skeleton_edges(cx: SimplicialComplex):
    return [e for e in _all_faces(cx) if len(e) == 2]


def balanced_coloring(cx: SimplicialComplex) -> Optional[Coloring]:
    """Proper (dim+1)-coloring of the 1-skeleton by exhaustive backtracking
    over ascending vertices and colours, on an explicit stack."""
    if not cx.is_pure():
        raise PurityError("balancedness presumes a pure complex")
    k = cx.dim + 1
    verts = list(cx.vertices)
    adj = _adjacency(verts, one_skeleton_edges(cx))
    assignment = {}
    # tries[i] holds the colours verts[i] has left to try, in order 1..k,
    # given the colours of verts[:i]
    tries = []
    while len(tries) < len(verts):
        used = {assignment[u] for u in adj[verts[len(tries)]] if u in assignment}
        tries.append(iter([c for c in range(1, k + 1) if c not in used]))
        # take the next colour, backing up past vertices with none left
        while (c := next(tries[-1], None)) is None:
            tries.pop()
            if not tries:
                return None
            assignment.pop(verts[len(tries)], None)
        assignment[verts[len(tries) - 1]] = c
    return Coloring(dict(assignment), k)


class _FreeFaceIndex:
    """The live faces of a complex under elementary collapses.

    Faces are numbered in the order the search tries them: larger faces
    first, then by sorted vertices.  Every collapse leaves a simplicial
    complex, and there a face is free exactly when it has one
    codimension-1 coface (a coface two sizes up brings two of them), so
    the index keeps each live face's live codimension-1 cofaces, the set
    of faces that have exactly one, and the number of live faces above
    the target dimension.  Removing a free pair touches only the ridges
    of the pair, and restoring it undoes exactly those entries.
    """

    def __init__(self, cx: SimplicialComplex, target_dim: int):
        self.faces = sorted(_all_faces(cx)[1:], key=lambda s: (-len(s), sorted(s)))
        ids = {f: i for i, f in enumerate(self.faces)}
        self.ridges = [[ids[f - {v}] for v in f] if len(f) > 1 else [] for f in self.faces]
        self.cofaces = [set() for _ in self.faces]
        for i, rs in enumerate(self.ridges):
            for r in rs:
                self.cofaces[r].add(i)
        self.free = {i for i, cs in enumerate(self.cofaces) if len(cs) == 1}
        # ids below `cut` are the faces of dimension > target_dim
        self.cut = sum(len(f) > target_dim + 1 for f in self.faces)
        self.high = self.cut

    def _unlink(self, i):
        for r in self.ridges[i]:
            cs = self.cofaces[r]
            cs.remove(i)
            if len(cs) == 1:
                self.free.add(r)
            elif not cs:
                self.free.discard(r)
        self.high -= i < self.cut

    def _link(self, i):
        for r in self.ridges[i]:
            cs = self.cofaces[r]
            cs.add(i)
            if len(cs) == 1:
                self.free.add(r)
            elif len(cs) == 2:
                self.free.discard(r)
        self.high += i < self.cut

    def collapse(self, f):
        """Remove the free face f with its coface; return the pair."""
        (g,) = self.cofaces[f]
        self._unlink(g)
        self._unlink(f)
        return f, g

    def restore(self, f, g):
        self._link(f)
        self._link(g)

    def residual(self, removed) -> SimplicialComplex:
        return SimplicialComplex(
            f for i, f in enumerate(self.faces) if not self.cofaces[i] and i not in removed
        )


def collapse_search(cx: SimplicialComplex, target_dim: int, budget: int = 10**6):
    """Greedy free-face collapsing with depth-first backtracking.

    Returns a certificate whose residual has dimension at most
    ``target_dim``, or None if the search exhausts its options or budget.
    A None result is not a proof of non-collapsibility.  Free faces are
    tried largest first, then by sorted vertices; ``budget`` bounds the
    number of elementary collapses tried, and ``budget=0`` only accepts a
    complex already at the target.  Each step costs O(dim) index updates
    and a sort of the free faces (see ``_FreeFaceIndex``), and the search
    runs on an explicit stack, so its depth is not bounded by recursion.
    """
    if target_dim < 0:
        raise DimensionError("target dimension must be >= 0")
    if budget < 0:
        raise RangeError(f"budget must be >= 0, got {budget}")
    index = _FreeFaceIndex(cx, target_dim)
    trail = []
    if index.high:
        if budget <= 0:
            return None
        # stack[k] iterates the free faces of the node reached by trail[:k]
        stack = [iter(sorted(index.free))]
        while True:
            f = next(stack[-1], None)
            if f is None:
                stack.pop()
                if not trail:
                    return None
                index.restore(*trail.pop())
                continue
            budget -= 1
            trail.append(index.collapse(f))
            if not index.high:
                break
            if budget <= 0:
                return None
            stack.append(iter(sorted(index.free)))
    removed = {i for pair in trail for i in pair}
    steps = tuple((index.faces[f], index.faces[g]) for f, g in trail)
    return CollapseCertificate(steps, index.residual(removed))


def replay_collapse(cx: SimplicialComplex, cert: CollapseCertificate) -> bool:
    """Machine-check a collapse certificate step by step.

    Raises ValueError on any invalid step; returns True when the replayed
    residual matches the certificate.  Valid steps keep the faces closed
    under subsets, where a face is free exactly when it has one
    codimension-1 coface, so each step probes free + {v} for v adjacent to it.
    """
    face_set = set(_all_faces(cx)) - {frozenset()}
    adj = _adjacency(cx.vertices, one_skeleton_edges(cx))
    for free, coface in cert.steps:
        if free not in face_set or coface not in face_set:
            raise ValueError(f"step touches a missing face: {sorted(free)}")
        near = min((adj[u] for u in free), key=len) - free
        containing = [free | {v} for v in near if free | {v} in face_set]
        if containing != [coface]:
            raise ValueError(f"{sorted(free)} is not a free face of {sorted(coface)}")
        face_set -= {free, coface}
    if SimplicialComplex(face_set) != cert.residual:
        raise ValueError("residual mismatch after replay")
    return True
