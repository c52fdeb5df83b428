"""Weak/strong Lefschetz decisions, inverse systems, sop verification and
the unexpectedness verdict.

All decisions reduce to exact ranks.  Quotients by extra forms are
computed inside the face-monomial basis of the Stanley-Reisner quotient:
squarefree generators annihilate exactly the non-face-supported
monomials, so spans and inverse systems never leave face-supported
coordinates.  Monomial generators fold into exponent caps and
divisibility filters that pick the basis from
``monomials.standard_monomials``, as a capped frame's caps do; only the
other forms become span rows.  A pure power of every vertex bounds the
vanishing degree by that frame's socle degree + 1.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Optional

from . import linalg, subdivision
from .complexes import (
    Coloring,
    SimplicialComplex,
    _adjacency,
    _reachable,
    fh_profile,
    is_cohen_macaulay,
    is_homology_sphere,
    one_skeleton_edges,
)
from .errors import (
    ArityError,
    ColoringError,
    FalsificationError,
    HomogeneityError,
    HypothesisError,
    InputError,
    NotArtinian,
    PreconditionError,
    RangeError,
)
from .monomials import (
    ArtinianFrame,
    Monomial,
    Polynomial,
    code,
    code_base,
    coded_monomials,
    coded_terms,
    contract,
    differentiate,
    exponent_weights,
    face_monomials,  # unused here; benchmarks/selftest.py checks the tracer wraps this binding
    hilbert_function,
    multiplication_matrix,
    standard_basis,
    standard_monomials,
    stanley_reisner_generators,
    sum_of_variables,
)


@dataclass(frozen=True)
class SopCandidate:
    """A sequence of homogeneous forms of positive degree proposed as a
    system of parameters: a sop lies in the maximal ideal, so a constant
    is refused.  Constants stay valid extra forms of ``quotient_hilbert``."""

    theta: tuple
    total_degree_t: Optional[int] = None

    def __post_init__(self):
        for th in self.theta:
            if th.is_zero() or not th.is_homogeneous() or th.degree() == 0:
                raise HomogeneityError(
                    f"sop entries must be homogeneous of positive degree: {th}")

    @classmethod
    def make(cls, forms, total_degree_t=None) -> "SopCandidate":
        return cls(tuple(forms), total_degree_t)

    @property
    def degrees(self) -> tuple:
        return tuple(th.degree() for th in self.theta)


@dataclass(frozen=True)
class SopCheck:
    is_sop: bool
    vanishing_degree: Optional[int]
    hilbert_values: tuple

    def __bool__(self):
        return self.is_sop


@dataclass(frozen=True)
class PerDegree:
    k: int
    dim_from: int
    dim_to: int
    rank: int
    full_rank: bool
    failure_mode: str  # none | injectivity | surjectivity | both


@dataclass(frozen=True)
class WlpReport:
    holds: bool
    socle_degree: int
    per_degree: tuple

    def failures(self):
        return [p for p in self.per_degree if not p.full_rank]


@dataclass(frozen=True)
class SlpReport:
    holds: bool
    socle_degree: int
    per_pair: tuple  # (power j, degree i, dim_from, dim_to, rank, full_rank)


@dataclass(frozen=True)
class InverseSystemPiece:
    degree: int
    basis: tuple

    @property
    def dimension(self) -> int:
        return len(self.basis)


@dataclass(frozen=True)
class UnexpectedReport:
    """Per-condition verdicts for a candidate unexpected sop."""

    u1: bool
    u2: bool
    u3: bool
    u4: bool
    u5: bool
    overall: bool
    witnesses: dict

    def __bool__(self):
        return self.overall


@dataclass(frozen=True)
class ClassifierResult:
    wlp: bool
    reason: str

    def __bool__(self):
        return self.wlp


def _validate_extra(cx, extra):
    vset = set(cx.vertices)
    for g in extra:
        if g.is_zero():
            continue
        if not g.is_homogeneous():
            raise HomogeneityError(f"non-homogeneous form {g}")
        foreign = set(g.variables()) - vset
        if foreign:
            raise PreconditionError(
                f"form {g} mentions variables outside the vertex set: {sorted(foreign)}"
            )


def _fold(extra):
    """Split nonzero forms into pure-power caps, (v, least exponent) pairs
    in ascending v, other monomials' exponent tuples (divisibility
    filters) and the forms that need span rows."""
    caps, filters, others = {}, [], []
    for g in extra:
        if g.is_zero():
            continue
        if not g.is_monomial():
            others.append(g)
            continue
        m = next(iter(g.terms))
        if len(m.exps) == 1:
            v, e = m.exps[0]
            caps[v] = min(caps.get(v, e), e)
        else:
            filters.append(m.exps)
    return tuple(sorted(caps.items())), filters, others


def _graded_basis(cx, extra, k):
    """Caps, filters, standard monomials and span forms of the quotient by
    extra in degree k, folded from the generators of degree <= k."""
    caps, filters, others = _fold(g for g in extra if g.degree() <= k)
    return caps, filters, standard_monomials(cx, k, caps, filters), others


@lru_cache(maxsize=1024)
def _hilbert(cx, extra: tuple, k: int) -> int:
    """Degree-k dimension of the quotient by extra: the standard monomials
    minus the rank of the span of the other generators.

    The span has a row m·g per form g and standard monomial m of degree
    k - deg g, with g's coefficient of t in the column of m·t.  The
    products are sums of codes (``coded_monomials``) with exponents up
    to k: no monomial coded or formed has a larger degree.  Distinct
    terms give distinct products, and a product missing from the columns
    is zero in the quotient.

    Only the value is memoised: vanishing scans, inverse-system pieces and
    membership tests ask for the same degrees over and over, and an int
    costs next to nothing to keep, where span rows would not.
    """
    caps, filters, cols, others = _graded_basis(cx, extra, k)
    base = code_base(k)
    index = coded_monomials(cx, k, base, caps, filters)
    entries = {}
    i = 0
    for g in others:
        terms = coded_terms(cx, g, base)
        for m in coded_monomials(cx, k - g.degree(), base, caps, filters):
            for t, c in terms:
                if (j := index.get(m + t)) is not None:
                    entries[i, j] = c
            i += 1
    span = linalg.ExactMatrix._trusted(i, len(cols), entries)
    return len(cols) - (linalg.rank(span) if span.entries else 0)


def quotient_hilbert(cx: SimplicialComplex, extra, k: int) -> int:
    """Dimension of the degree-k piece of the Stanley-Reisner quotient by
    additional homogeneous forms.

    A sop of a Cohen-Macaulay complex reads every degree from
    ``_sop_values``.  Input of that shape that is no sop, with a form of
    degree 2 or more, pays the one rank ``_sop_values`` takes at the
    vanishing bound before the degree-k rank."""
    _validate_extra(cx, extra)
    return _value(cx, tuple(extra), k) if k >= 0 else 0


@lru_cache(maxsize=256)
def _sop_values(cx, extra: tuple) -> Optional[tuple]:
    """The quotient Hilbert function by extra in degrees 0 to its first
    vanishing degree, when extra is a sop of a Cohen-Macaulay complex;
    None when the scan has to decide.

    Shape.  Only a Cohen-Macaulay Δ of dimension d with exactly d + 1
    forms, each nonzero and of positive degree e_i, is decided here.  The
    ring K[Δ] has Krull dimension d + 1, so these forms are a sop exactly
    when the quotient A = K[Δ]/(θ) is artinian.

    Artinian.  When every form is linear, A is artinian exactly when each
    facet restriction, the (d + 1)×|F| matrix of the forms' coefficients
    on the vertices of F, has rank |F| (Kind-Kleinschmidt, Math. Z. 167
    (1979); Stanley, Combinatorics and Commutative Algebra, III.2.4).
    Otherwise one rank decides: A_N = 0, N = 1 + deg h + Σ(e_i - 1), the
    bound of ``_vanishing_bound``.  A is standard graded (A_{k+1} =
    A_1 A_k), so A_N = 0 gives A_k = 0 for every k >= N and A is
    artinian; conversely a sop gives A_N = 0 by the series below.  A
    candidate that fails returns None, and the scan gives its values.

    Values.  On a Cohen-Macaulay ring a sop is a regular sequence, and
    dividing by a regular form of degree e multiplies the Hilbert series
    by 1 + t + ... + t^{e-1}.  So A has the series h(t) ∏(1 + ... +
    t^{e_i - 1}), h(t) = h_0 + ... + h_s t^s with s = deg h (Stanley, I.5
    and II.4), a polynomial of degree s + Σ(e_i - 1) = N - 1.  Its top
    coefficient is h_s > 0, and a standard graded algebra that vanishes
    in one degree vanishes in every later one, so no degree below N
    vanishes: N is the first vanishing degree, as the scan finds.  The
    values are the series' coefficients, then 0.
    """
    d = cx.dim
    if (len(extra) != d + 1 or any(g.is_zero() or g.degree() < 1 for g in extra)
            or not is_cohen_macaulay(cx)):
        return None
    linear = all(g.degree() == 1 for g in extra)
    if linear:
        coeffs = [{m.exps[0][0]: c for m, c in g.terms.items()} for g in extra]
        for f in cx.facets:
            entries = {(i, j): linalg._exact(row[v])
                       for i, row in enumerate(coeffs)
                       for j, v in enumerate(sorted(f)) if v in row}
            if linalg.rank(linalg.ExactMatrix._trusted(d + 1, len(f), entries)) != len(f):
                return None
    profile = fh_profile(cx)
    values = list(profile.h[: profile.h_degree + 1])
    for g in extra:
        # times 1 + t + ... + t^{e-1}: each coefficient sums e neighbours
        e = g.degree()
        padded = [0] * (e - 1) + values + [0] * (e - 1)
        values = [sum(padded[k:k + e]) for k in range(len(values) + e - 1)]
    if not linear and _hilbert(cx, extra, len(values)) != 0:
        return None
    return tuple(values) + (0,)


def _value(cx, extra: tuple, k: int) -> int:
    """The degree-k quotient dimension, k >= 0: from ``_sop_values`` where
    it decides, else one ``_hilbert`` rank."""
    values = _sop_values(cx, extra)
    if values is None:
        return _hilbert(cx, extra, k)
    return values[k] if k < len(values) else 0


def _vanishing_bound(cx, extra):
    """A degree where the quotient by extra vanishes if it is artinian.

    On a Cohen-Macaulay complex that is 1 + deg h + sum(deg g - 1).  For
    linear forms on any complex it is dim + 2: artinian means every face
    restriction of the forms has full rank (Kind-Kleinschmidt), so a face
    monomial with an exponent >= 2 is, modulo the forms, a combination of
    monomials on strictly larger faces, and the squarefree face monomials,
    of degree at most dim + 1, span the quotient.  When extra holds a pure
    power of every vertex, the quotient is a quotient of that capped
    frame, which vanishes past its socle degree.  No other bound is
    proven, so anything else is refused.
    """
    if is_cohen_macaulay(cx):
        return 1 + fh_profile(cx).h_degree + sum(max(g.degree() - 1, 0) for g in extra)
    if all(g.degree() <= 1 for g in extra):
        return cx.dim + 2
    caps = dict(_fold(extra)[0])
    if all(v in caps for v in cx.vertices):
        return 1 + max(sum(caps[v] - 1 for v in f) for f in cx.facets)
    raise HypothesisError(
        "no proven vanishing bound for these forms on a non-Cohen-Macaulay complex"
    )


def _first_vanishing(cx, extra: tuple):
    """First degree where the quotient Hilbert function vanishes, with the
    values up to it: read from ``_sop_values`` for a sop of a
    Cohen-Macaulay complex, and otherwise scanned up to the vanishing
    bound; None if it stays positive that far."""
    _validate_extra(cx, extra)
    values = _sop_values(cx, extra)
    if values is not None:
        return len(values) - 1, values
    values = []
    for k in range(_vanishing_bound(cx, extra) + 1):
        values.append(_hilbert(cx, extra, k))
        if values[-1] == 0:
            return k, tuple(values)
    return None, tuple(values)


def is_sop(cx: SimplicialComplex, cand: SopCandidate) -> SopCheck:
    """Decide whether the candidate is a system of parameters.

    The quotient of a standard graded algebra is zero from the first
    degree where it vanishes, and for a sop that happens no later than
    the vanishing bound; scanning up to that bound decides.  A sop of a
    Cohen-Macaulay complex is decided without the scan
    (``_sop_values``).
    """
    d = cx.dim
    if len(cand.theta) != d + 1:
        raise ArityError(f"a sop of a {d}-complex needs {d + 1} forms, got {len(cand.theta)}")
    k, values = _first_vanishing(cx, cand.theta)
    return SopCheck(k is not None, k, values)


def inverse_system_piece(cx: SimplicialComplex, extra, k: int) -> InverseSystemPiece:
    """Degree-k piece of the inverse system of the Stanley-Reisner ideal
    plus extra forms, as a kernel over face-supported monomials.

    By Macaulay duality the piece has dimension dim A_k, A the quotient
    by extra.  A is standard graded (A_{k+1} = A_1 A_k), so it vanishes
    in every degree from its first vanishing degree N
    (``_first_vanishing``) on, and there the piece is empty without a
    matrix.  Below N the contraction matrix is built here, not from span
    rows, so duality stays an independent check of the quotient
    dimensions.  Its columns are the standard monomials b of degree k,
    and each span form g has one row per quotient q = b / t over its
    terms t, in order of first appearance; entry (g, q), b is g's
    coefficient of t, read into ``linalg``'s normal form once per form.
    A form given more than once adds its coefficients once per copy.  The
    quotients are differences of codes with exponents up to k, looked up
    in the standard monomials of degree k - deg g: t divides b exactly
    when the difference is a code there (``coded_monomials``).
    """
    extra = tuple(extra)
    vanishing = _first_vanishing(cx, extra)[0]
    if vanishing is None:
        raise NotArtinian("quotient Hilbert function does not vanish by the sop bound")
    if k >= vanishing:
        return InverseSystemPiece(k, ())
    caps, filters, cols, others = _graded_basis(cx, extra, k)
    base = code_base(k)
    row_index = {}
    entries = {}
    for n, (g, copies) in enumerate(Counter(others).items()):
        terms = coded_terms(cx, g, base, copies)
        lower = coded_monomials(cx, k - g.degree(), base, caps, filters)
        for b, j in coded_monomials(cx, k, base, caps, filters).items():
            for t, c in terms:
                if (q := b - t) in lower:
                    # distinct terms of one form give distinct quotients
                    entries[row_index.setdefault((n, q), len(row_index)), j] = c
    mat = linalg.ExactMatrix._trusted(len(row_index), len(cols), entries)
    basis = tuple(
        Polynomial({Monomial._trusted(cols[j], k): c for j, c in enumerate(vec) if c})
        for vec in linalg.kernel_basis(mat).vectors
    )
    return InverseSystemPiece(k, basis)


def _membership(cx, extra: tuple, g):
    """g lies in the Stanley-Reisner ideal plus extra exactly when adding
    it as a generator leaves the degree-(deg g) quotient unchanged."""
    _validate_extra(cx, [g])
    if g.is_zero():
        return True
    k = g.degree()
    # the value with g is not memoised: each g is asked about once, and its
    # cache key would keep g alive for the rest of the process
    return _hilbert.__wrapped__(cx, extra + (g,), k) == _value(cx, extra, k)


def ideal_membership(cx: SimplicialComplex, extra, g: Polynomial) -> bool:
    """Exact membership test by span rank (the inverse-system annihilation
    test is available through inverse_system_piece as an independent
    oracle)."""
    extra = tuple(extra)
    if _first_vanishing(cx, extra)[0] is None:
        raise NotArtinian("membership is supported for artinian quotients only")
    return _membership(cx, extra, g)


def _failure_mode(dim_from, dim_to, rank):
    if rank == min(dim_from, dim_to):
        return "none"
    if dim_from < dim_to:
        return "injectivity"
    if dim_from > dim_to:
        return "surjectivity"
    return "both"


def twin_pairs(frame: ArtinianFrame) -> tuple:
    """Disjoint swaps (u, v), u < v, of twin vertices of the frame.

    Twins are vertices with equal links and equal caps; each swap is then
    an automorphism of the frame (a face holding both would put v in lk v),
    and disjoint swaps commute.  Vertices are grouped by (link facets,
    cap), the link facets read in one pass as {f - {v} : v in f}, and
    consecutive members of each group are paired.  Labels and ``meta`` are
    never read.
    """
    links = {}
    for f in frame.complex.facets:
        for v in f:
            links.setdefault(v, set()).add(f - {v})
    groups = {}
    for v, a in frame.caps:
        groups.setdefault((frozenset(links[v]), a), []).append(v)
    return tuple(sorted(p for g in groups.values() for p in zip(g[::2], g[1::2])))


class IsotypicMaps:
    """×L of a frame in the symmetry-adapted bases of its twin swaps.

    The t twin swaps (``twin_pairs``) generate G = (Z/2)^t, and ×L
    commutes with G, so over the rationals it splits into one block per
    character S (a set of swaps, read as a bit mask; S acts by -1 on its
    swaps).  The orbit of a standard monomial has one representative r
    with e_a >= e_b on every pair (a, b); the pairs with e_a = e_b, its
    balanced mask, fix it.  The signed orbit sum of r vanishes for the
    characters that meet its balanced mask, and the others, over the
    representatives in standard-monomial order, are the basis of block S.

    The representatives are the standard monomials of Δ' = Δ|V∖B, B the
    second twins, under the caps of V∖B (``orbit_frame``).  Twins are
    never in one face (one would lie in the other's link), so a standard
    monomial holds a, b or neither, and a representative holds a or
    neither: its support misses B.  A face missing B is a face of Δ', and
    a face of Δ' is a face f - B of Δ, so the monomials supported off B
    are standard in Δ and in Δ' alike.  Both bases are listed in one
    graded-lex order, so the representatives come in standard-monomial
    order, and the unbalanced pairs of r are the first twins it holds.

    In these bases each product x_v r adds 1 to the entry of its target's
    representative q in block S.  A standard monomial is balanced on a
    pair only where e_a = e_b = 0, so x_v r can unbalance a pair of r but
    never balance one: q's balanced mask lies in r's and misses S, and q
    is in the basis of block S.  The general entry (-1)^|h & S|, h the
    swaps taking q to x_v r, is +1 here, since h only holds pairs where r
    is balanced.  For v in B, x_v r is standard only if r misses v's twin
    a (equal links), and then x_v r and x_a r share an orbit.  So the
    products are taken on Δ': x_v r for v in V∖B, with entry 2 where v is
    a first twin missing from r, and 1 otherwise.

    ``matrix(k)`` lays every block along its diagonal, characters
    ascending; without twins it is ``multiplication_matrix(frame, L, k)``.
    Representatives are held as their codes (``code``, as in
    ``coded_monomials``; the layouts index them, so no cached view is
    kept), and x_v r is the sum of two codes: r's exponents are below
    their caps and x_v adds one, so every exponent coded or formed is at
    most the largest cap of Δ'.  No ``Monomial`` is built.  Each
    degree's layout is built on first use and kept with the instance, so
    maps taken in any order share it.
    """

    def __init__(self, frame: ArtinianFrame):
        self.frame = frame
        self.pairs = twin_pairs(frame)
        second = {b for _, b in self.pairs}
        self.orbit_frame = frame if not second else ArtinianFrame(
            SimplicialComplex([f - second for f in frame.complex.facets]),
            {v: a for v, a in frame.caps if v not in second})
        self._bits = {a: 1 << bit for bit, (a, _) in enumerate(self.pairs)}
        cx = self.orbit_frame.complex
        self._base = code_base(max(a for _, a in self.orbit_frame.caps))
        self._weights = weights = exponent_weights(cx, self._base)
        adjacent = _adjacency(cx.vertices, one_skeleton_edges(cx))
        # x_v m can be standard only for v next to every vertex of m; the
        # monomial 1 (key None) takes every x_v, each kept as its code and
        # its bit if v is a first twin
        bits = self._bits
        self._candidates = {
            v: tuple((weights[w], bits.get(w, 0)) for w in sorted(c | {v}))
            for v, c in adjacent.items()
        }
        self._candidates[None] = tuple((weights[w], bits.get(w, 0)) for w in cx.vertices)
        self._layouts = {}  # degree -> layout, built on first use

    def _unbalanced(self, r) -> int:
        """The unbalanced mask of a representative: its first twins."""
        bits = self._bits
        free = 0
        for v, _ in r:
            free |= bits.get(v, 0)
        return free

    def _layout(self, k: int) -> tuple:
        """Each character S filed in degree k mapped to its basis, the
        length of the diagonal, and each representative's code mapped to
        its candidates x_v and its unbalanced mask.  The basis of S is the
        codes of the representatives whose balanced mask misses S, in
        standard-monomial order, each mapped to its position along the
        diagonal, where the characters ascend.  The trivial character's
        basis holds every representative."""
        bases = {}
        heads = {}
        filed = {}  # unbalanced mask -> the characters its monomials are filed under
        for r in standard_monomials(self.orbit_frame.complex, k, self.orbit_frame.caps):
            q = code(r, self._weights)
            free = self._unbalanced(r) if self.pairs else 0
            heads[q] = (self._candidates[r[0][0] if r else None], free)
            chars = filed.get(free)
            if chars is None:
                # the characters trivial on the stabiliser: submasks of free
                chars = filed[free] = [free]
                s = free
                while s:
                    s = (s - 1) & free
                    chars.append(s)
            for s in chars:
                bases.setdefault(s, []).append(q)
        out, length = {}, 0
        for s in sorted(bases):
            out[s] = dict(zip(bases[s], range(length, length + len(bases[s]))))
            length += len(bases[s])
        return out, length, heads

    def matrix(self, k: int) -> linalg.ExactMatrix:
        """×L from degree k to k + 1, every character's block along the
        diagonal, characters ascending."""
        layouts = self._layouts
        for d in (k, k + 1):
            if d not in layouts:
                layouts[d] = self._layout(d)
        (src, width, heads), (dst, height, _) = layouts[k], layouts[k + 1]
        reps = dst.get(0, {})  # every representative lies in the trivial block
        # x_v r and x_b r share an orbit where v is a first twin missing
        # from r, b its twin
        products = {
            r: [(q, 2 if bit & ~free else 1) for x, bit in candidates if (q := r + x) in reps]
            for r, (candidates, free) in heads.items()
        }
        entries = {}
        for s, basis in src.items():
            rows = dst.get(s, {})
            for r, j in basis.items():
                for q, c in products[r]:
                    entries[rows[q], j] = c
        return linalg.ExactMatrix._trusted(height, width, entries)


def _tensor(strings: Counter, factor) -> Counter:
    """The strings of ×L on a tensor product, L = L_1 ⊗ 1 + 1 ⊗ L_2: (s, m)
    times (u, n) is the strings (s + u + i, m + n - 1 - 2i), 0 <= i <
    min(m, n), by the graded Clebsch-Gordan rule (``_suspension_strings``)."""
    joined = Counter()
    for (s, m), c in strings.items():
        for u, n in factor:
            for i in range(min(m, n)):
                joined[s + u + i, m + n - 1 - 2 * i] += c
    return joined


def _suspension_strings(facets, caps: dict) -> Optional[Counter]:
    """The graded Jordan type of ×L as a Counter of strings (start degree,
    length) on the frame with these facets (distinct, none in another) and
    caps when Δ is a simplex joined with suspensions, Δ = C * {a_1, b_1} *
    ... * {a_t, b_t}; None for any other Δ.

    Detection.  C is the set of vertices in every facet and t = (|V| -
    |C|) / 2.  Δ is such a join exactly when there are 2^t facets, each of
    |C| + t vertices, and each vertex outside C shares no face with
    exactly one vertex.  Those vertices then fall into t pairs.  A facet
    holds C and no non-edge, so at most one vertex of each pair, and its
    size forces exactly one.  So the facets are transversals of the
    pairs, and 2^t distinct ones are all of them.  (Without the size test
    the non-pure {13, 14, 15, 16, 235, 236, 245, 246} would pass.)

    Strings.  A string (s, m) is an f in A_s with L^m f = 0 and f, Lf, ...,
    L^{m-1} f nonzero; a Jordan basis of ×L splits A into the spans of
    strings.  The ring of a join is the tensor product of its factors'
    rings, caps included, with L = L_1 ⊗ 1 + 1 ⊗ L_2.  A cone vertex with
    cap a gives K[x]/(x^a), one string (0, a).  A pair with caps a <= b
    gives K[x, y]/(xy, x^a, y^b), spanned by 1, x^i (0 < i < a) and y^i
    (0 < i < b).  L^i = x^i + y^i is nonzero exactly for i < b, and with
    x^i it spans x^i and y^i, so the strings are (0, b) from 1 and
    (1, a - 1) from x.

    Tensor products.  The string (s, m) is the irreducible sl_2-module of
    dimension m, L raising, weighted by degree minus its centre
    s + (m - 1)/2.  Over ℚ the product of two such modules, L_1 ⊗ 1 +
    1 ⊗ L_2 raising, splits into irreducibles of dimensions m + n - 1 - 2i,
    0 <= i < min(m, n), all centred at the sum of the centres: (s, m)
    times (u, n) is the strings (s + u + i, m + n - 1 - 2i), the graded
    Clebsch-Gordan rule (Harima-Maeno-Morita-Numata-Wachi-Watanabe, The
    Lefschetz Properties, LNM 2080; ``_tensor``).
    """
    vertices = set().union(*facets)
    cone = frozenset.intersection(*facets)
    t, odd = divmod(len(vertices) - len(cone), 2)
    if odd or len(facets) != 1 << t or any(len(f) != len(cone) + t for f in facets):
        return None
    near = {v: set() for v in vertices}  # v and the vertices it shares a face with
    for f in facets:
        for v in f:
            near[v] |= f
    strings = Counter({(0, 1): 1})
    for v in vertices:
        apart = vertices - near[v]
        if v in cone:
            strings = _tensor(strings, ((0, caps[v]),))
        elif len(apart) != 1:
            return None
        elif v < min(apart):
            a, b = sorted((caps[v], caps[min(apart)]))
            strings = _tensor(strings, ((0, b), (1, a - 1)))
    return strings


def _peeled_strings(frame: ArtinianFrame) -> tuple:
    """The levels of the vertex peel below, each a Counter of strings
    (start degree, length): the star pieces in peel order, then the leaf,
    whose sum counts every dim A_k; ``_certified`` reads ranks from them.

    The peel.  While Δ is no simplex joined with suspensions, take the
    first vertex v, ordered by (number of facets holding it, id), whose
    link is one, or else the first vertex; keep its star piece's strings
    and go on with the deletion Δ - v.  Once Δ is such a join, its strings
    (``_suspension_strings``) are the leaf.

    The pieces.  Let A = K[Δ]/(x_u^{a_u}).  There is a short exact
    sequence of graded K[L]-modules 0 → x_v A → A → A/x_v A → 0.
    A/x_v A is the frame on the deletion Δ - v (the faces missing v) with
    the same caps.  x_v A ≅ (A/ann x_v)(-1), and x_v m = 0 exactly when
    supp(m) ∪ {v} is no face or m holds x_v^{a_v - 1}, so A/ann x_v is the
    frame on the star of v with cap a_v - 1 on v, that is K[x_v]/
    (x_v^{a_v - 1}) tensored with the frame on lk v; at a_v = 2 it is the
    frame on lk v, and K when lk v is empty.  Its strings are the link's
    (``_jordan_type``) tensored with (0, a_v - 1), and the shift by one
    degree makes that factor (1, a_v - 1) (``_tensor``).  The pieces split
    A as a graded vector space, so the strings covering k count dim A_k
    exactly, peeled or not.

    The deletion's facets are the facets missing v and those f - v not
    inside one of them.  A peel ends, since each step drops a vertex and
    the complex of the empty face is a simplex.
    """
    facets, caps = frame.complex.facets, frame.cap_map
    levels, memo = [], {}  # memo: the links' Jordan types, for this peel
    while (leaf := _suspension_strings(facets, caps)) is None:
        holding = Counter(v for f in facets for v in f)
        order = sorted(holding, key=lambda v: (holding[v], v))
        for v in order:
            link = [f - {v} for f in facets if v in f]
            if (piece := _suspension_strings(link, caps)) is not None:
                break
        else:
            v = order[0]
            piece = _jordan_type(link := [f - {v} for f in facets if v in f], caps, memo)
        levels.append(_tensor(piece, ((1, caps[v] - 1),)))
        rest = [f for f in facets if v not in f]
        facets = rest + [g for g in link if not any(g <= f for f in rest)]
    return (*levels, leaf)


def _jordan_type(facets, caps: dict, memo: dict) -> Counter:
    """The graded Jordan type of ×L, a Counter of strings (start degree,
    length), on the frame B with these facets and caps: the closed form
    when B is a simplex joined with suspensions (``_suspension_strings``),
    else read from the ranks r(j, i) of ×L^j: B_i → B_{i+j} that
    ``slp_check`` takes on B, kept in memo by facet set.

    Strings from ranks.  r(j, i) counts the strings covering i and i + j
    (``_covering``), r(0, i) = dim B_i, and r = 0 out of range.  So
    r(ℓ-1, i) - r(ℓ, i) counts the strings from at most i that end at i +
    ℓ - 1, r(ℓ, i-1) - r(ℓ+1, i-1) those from at most i - 1 that end
    there, and their difference n(i, ℓ) the strings (i, ℓ).  The recursion
    ends: a peel hands over the link of a vertex v of its frame, which
    misses v, and ``slp_check`` peels B a vertex per step, so each nested
    call has fewer vertices than the one above it.
    """
    strings = _suspension_strings(facets, caps) or memo.get(frozenset(facets))
    if strings is None:
        r = Counter()  # (j, i) -> rank of ×L^j from degree i, dim B_i at j = 0
        frame = ArtinianFrame(SimplicialComplex(facets), {v: caps[v] for f in facets for v in f})
        for j, i, a, b, rank, _ in slp_check(frame).per_pair:
            r[j, i], r[0, i], r[0, i + j] = rank, a, b
        strings = memo[frozenset(facets)] = Counter({(i, m + 1): c for m, i in r if (
            c := r[m, i] - r[m + 1, i] - r[m + 1, i - 1] + r[m + 2, i - 1])})
    return strings


def _covering(strings: Counter, i: int, j: int) -> int:
    """The strings covering i and i + j: the rank of ×L^j from degree i on
    a Jordan type, dim A_i at j = 0.  ×L^j keeps the degree-i element of a
    string nonzero exactly when the string covers i + j too, and distinct
    strings map independently."""
    return sum(c for (s, m), c in strings.items() if s <= i and i + j < s + m)


def _certified(peeled, i: int, j: int) -> Optional[int]:
    """rank(×L^j: A_i → A_{i+j}) where the peel (``_peeled_strings``)
    decides it; None where it leaves the rank open.

    Each level splits a frame B (A at the top) as 0 → S → B → Q → 0, S =
    x_v B the star piece and Q = B/x_v B the frame on the deletion, the
    next level down; the leaf's and the star pieces' ranks, read from
    their Jordan types, are exact.  ×L^j maps this sequence in degree i to
    the one in degree i + j, so the snake lemma gives the exact sequence

        0 → ker_S → ker_B → ker_Q --δ--> coker_S → coker_B → coker_Q → 0

    of ×L^j restricted to S_i, B_i and Q_i, and with dim B_i = dim S_i +
    dim Q_i, rank_B = rank_S + rank_Q + rank δ.  δ maps ker(×L^j on Q_i)
    to coker(×L^j: S_i → S_{i+j}), so δ = 0 where S is onto S_{i+j}
    (rank_S = dim S_{i+j}) or Q is injective on Q_i (rank_Q = dim Q_i),
    and there rank_B = rank_S + rank_Q.  So, from the leaf up, the sum of
    the levels' ranks is exact while every level meets one of the two
    conditions, and a lower bound (rank δ >= 0) where one does not.  A sum
    that reaches min(dim A_i, dim A_{i+j}) meets them everywhere: each
    level's rank is at most its dim in degree i and in degree i + j, and
    the dims add up, so a sum of dim A_i makes every Q injective and one
    of dim A_{i+j} every S onto.
    """
    *pieces, leaf = peeled
    rank, source = _covering(leaf, i, j), _covering(leaf, i, 0)  # of Q, the level below
    exact = True
    for star in reversed(pieces):
        r = _covering(star, i, j)
        exact = exact and (r == _covering(star, i + j, 0) or rank == source)
        rank, source = rank + r, source + _covering(star, i, 0)
    return rank if exact else None


def wlp_check(frame: ArtinianFrame) -> WlpReport:
    """Full-rank report for multiplication by the sum of the variables in
    every degree up to the socle degree.  For monomial algebras that
    single linear form decides the weak Lefschetz property.

    A rank is read without elimination where the vertex peel
    (``_peeled_strings``) decides it (``_certified``): every rank when Δ
    is a simplex joined with suspensions, and otherwise wherever the
    snake lemma rules out each level's connecting map; on BALL10 at caps
    2 to 6 that is every degree.  The dimensions come from the same
    strings.  Any other rank is that of ×L in the symmetry-adapted bases
    of the frame's twin swaps (``IsotypicMaps``, built at the first
    elimination).  Two rules set ranks the theory decides, and the peel
    is read only where they leave a rank open.

    Down: if ×L is injective on A_{k+1} and A_k holds no socle
    (``ArtinianFrame.socle_degrees``), it is injective on A_k.  For f in
    A_k with Lf = 0, L(x_v f) = x_v Lf = 0, so x_v f = 0 for every v, so
    f is in the socle, so f = 0 (Migliore–Miró-Roig–Nagel, Trans. AMS 363
    (2011), Prop. 2.1).  So the degrees with dim A_k <= dim A_{k+1} are
    taken first, descending, ranking until one is injective and setting
    the rank to dim A_k below it until the next socle degree.

    Up: the algebra is generated in degree 1, so once L A_k = A_{k+1}
    every later map is onto as well (A_{k+2} = A_1 L A_k = L A_{k+1}).
    The degrees still open are taken ascending, and after the first onto
    map their ranks are set to the target dimension.
    """
    holds_socle = frame.socle_degrees()
    socle = max(holds_socle)
    strings = sum(peeled := _peeled_strings(frame), Counter())
    dims = [_covering(strings, k, 0) for k in range(socle + 1)]
    maps = None

    def rank(k):
        nonlocal maps
        r = _certified(peeled, k, 1)
        if r is None:
            maps = maps or IsotypicMaps(frame)
            r = linalg.rank(maps.matrix(k))
        return r

    ranks = [None] * socle
    injective = False  # on A_{k+1}
    for k in reversed(range(socle)):
        if dims[k] > dims[k + 1]:
            injective = False
        elif injective and k not in holds_socle:
            ranks[k] = dims[k]
        else:
            ranks[k] = rank(k)
            injective = ranks[k] == dims[k]
    onto = False
    for k in range(socle):
        if ranks[k] is None:
            ranks[k] = dims[k + 1] if onto else rank(k)
        onto = ranks[k] == dims[k + 1]
    per = [PerDegree(k, a, b, r, r == min(a, b), _failure_mode(a, b, r))
           for k, (a, b, r) in enumerate(zip(dims, dims[1:], ranks))]
    return WlpReport(all(p.full_rank for p in per), socle, tuple(per))


def slp_check(frame: ArtinianFrame) -> SlpReport:
    """Full-rank report for all powers of the linear form: the rank of
    ×L^j from degree i to i + j for every pair, in order of j, then i.

    As in ``wlp_check``, a pair the vertex peel decides takes its rank
    from the levels' strings (``_certified``), every pair when Δ is a
    simplex joined with suspensions.  And once L^j A_i = A_{i+j} the maps
    from later degrees are onto too (A_{i+1+j} = A_1 L^j A_i = L^j
    A_{i+1}).  The other pairs are eliminated: each ×L map M_k is built at
    most once, in the symmetry-adapted bases (``IsotypicMaps.matrix``),
    and ×L^j from degree i is M_{i+j-1} times ×L^{j-1} from degree i,
    composed up to the highest power still open from degree i.
    ``_jordan_type`` reads a link's strings from these ranks.
    """
    socle = frame.socle_degree()
    strings = sum(peeled := _peeled_strings(frame), Counter())
    dims = [_covering(strings, k, 0) for k in range(socle + 1)]
    maps, steps = None, {}  # the ×L maps M_k, built on first use
    ranks = {}  # (j, i) -> rank of ×L^j from degree i
    onto = set()  # powers j onto from some lower degree
    for i in range(socle):
        powers = range(1, socle - i + 1)
        for j in powers:
            ranks[j, i] = dims[i + j] if j in onto else _certified(peeled, i, j)
        top = max((j for j in powers if ranks[j, i] is None), default=0)
        power = None
        for j in range(1, top + 1):
            k = i + j - 1
            if k not in steps:
                maps = maps or IsotypicMaps(frame)
                steps[k] = maps.matrix(k)
            power = steps[k] if power is None else steps[k] @ power
            if ranks[j, i] is None:
                ranks[j, i] = linalg.rank(power)
        onto.update(j for j in powers if ranks[j, i] == dims[i + j])
    per = [(j, i, dims[i], dims[i + j], r, r == min(dims[i], dims[i + j]))
           for (j, i), r in sorted(ranks.items())]
    return SlpReport(all(p[5] for p in per), socle, tuple(per))


def kernel_transpose_basis(frame: ArtinianFrame, k: int) -> InverseSystemPiece:
    """Kernel of the transposed multiplication map from degree k to k-1.

    The basis vectors, read as polynomials in the standard monomials, are
    exactly the cap-bounded witnesses of the surjectivity-failure
    criterion.
    """
    if k < 1:
        raise RangeError("transpose kernel needs degree >= 1")
    mat = multiplication_matrix(frame, frame.linear_form(), k - 1)
    kb = linalg.kernel_basis(mat.transpose())
    monos = standard_basis(frame, k)
    basis = tuple(
        Polynomial({monos[j]: c for j, c in enumerate(vec) if c}) for vec in kb.vectors
    )
    return InverseSystemPiece(k, basis)


def _check_coloring(cx, rho: Coloring):
    d = cx.dim
    if rho.k != d + 1:
        raise ColoringError(f"need {d + 1} colors, coloring uses {rho.k}")
    if set(rho.assignment) != set(cx.vertices):
        raise ColoringError("coloring must assign every vertex")
    if not all(1 <= c <= rho.k for c in rho.assignment.values()):
        raise ColoringError("colors must lie in 1..k")
    for a, b in map(sorted, one_skeleton_edges(cx)):
        if rho.assignment[a] == rho.assignment[b]:
            raise ColoringError(f"adjacent vertices {a},{b} share color {rho.assignment[a]}")


def colored_sop(cx: SimplicialComplex, rho: Coloring) -> SopCandidate:
    """One linear form per color class; total degree equals deg h."""
    _check_coloring(cx, rho)
    theta = []
    for c in range(1, rho.k + 1):
        theta.append(sum_of_variables(sorted(rho.color_class(c))))
    return SopCandidate(tuple(theta), fh_profile(cx).h_degree)


def colored_dual_generator(cx: SimplicialComplex, rho: Coloring) -> Polynomial:
    """Signed sum of facet monomials over a bipartition of the facet-ridge
    graph; the Macaulay dual generator of the colored-sop quotient."""
    if not is_homology_sphere(cx):
        raise HypothesisError("dual generator construction needs a homology sphere")
    try:
        _check_coloring(cx, rho)
    except ColoringError as exc:
        raise HypothesisError(str(exc)) from exc
    graph = subdivision.facet_ridge_graph(cx)
    if graph.bipartition is None:
        raise HypothesisError("facet-ridge graph is not bipartite")
    b1, b2 = graph.bipartition
    terms = {}
    for idx in b1:
        terms[Monomial({v: 1 for v in graph.nodes[idx]})] = Fraction(1)
    for idx in b2:
        terms[Monomial({v: 1 for v in graph.nodes[idx]})] = Fraction(-1)
    F = Polynomial(terms)
    # active verification of the annihilation identities
    cand = colored_sop(cx, rho)
    checks = list(stanley_reisner_generators(cx).generators)
    checks.extend(cand.theta)
    checks.extend(Polynomial.variable(v, 2) for v in cx.vertices)
    checks.append(sum_of_variables(cx.vertices))
    for g in checks:
        if not contract(g, F).is_zero():
            raise FalsificationError(f"{g} does not annihilate the bipartition polynomial")
    return F


def universal_sop(n: int, count: int) -> SopCandidate:
    """Elementary symmetric polynomials e_1..e_count in x1..xn."""
    if not 1 <= count <= n:
        raise RangeError(f"count must lie in 1..{n}")
    theta = []
    for i in range(1, count + 1):
        terms = {
            Monomial({v: 1 for v in combo}): Fraction(1)
            for combo in combinations(range(1, n + 1), i)
        }
        theta.append(Polynomial(terms))
    return SopCandidate(tuple(theta), count * (count + 1) // 2)


def verify_unexpected(
    cx: SimplicialComplex,
    cand: SopCandidate,
    f: Polynomial,
    caps,
    t: int,
) -> UnexpectedReport:
    """Evaluate conditions (U1)-(U5) for a candidate sop.

    U1: the candidate is a sop.  U2: degree arithmetic
    sum(deg theta) + deg h - (d+1) = t.  U3/U4: the form f and every
    capped variable power lie in the ideal plus the sop.  U5: the capped
    algebra has no larger dimension in degree t than in degree t - deg f.
    """
    profile = fh_profile(cx)
    if t < profile.h_degree:
        raise RangeError(f"t={t} below deg h = {profile.h_degree}")
    if not f.is_homogeneous() or f.is_zero():
        raise HomogeneityError("f must be homogeneous and nonzero")
    frame = ArtinianFrame(cx, caps)
    d = cx.dim

    check = is_sop(cx, cand)
    u1 = check.is_sop

    lhs = sum(cand.degrees) + profile.h_degree - (d + 1)
    u2 = lhs == t

    u3 = _membership(cx, cand.theta, f)

    cap_map = frame.cap_map
    failing = [v for v, a in cap_map.items()
               if not _membership(cx, cand.theta, Polynomial.variable(v, a))]
    u4 = not failing

    hf_t = hilbert_function(frame, t)
    hf_prev = hilbert_function(frame, t - f.degree()) if t - f.degree() >= 0 else 0
    u5 = hf_t <= hf_prev

    overall = u1 and u2 and u3 and u4 and u5
    witnesses = {
        "u1": {"vanishing_degree": check.vanishing_degree,
               "quotient_hilbert": list(check.hilbert_values)},
        "u2": {"computed_total_degree": lhs, "t": t},
        "u3": {"form": str(f)},
        "u4": {"failing_powers": [f"x{v}^{cap_map[v]}" for v in failing]},
        "u5": {"hf_t": hf_t, "hf_t_minus_deg_f": hf_prev},
    }
    return UnexpectedReport(u1, u2, u3, u4, u5, overall, witnesses)


def graph_wlp_classifier(graph: SimplicialComplex, a: int) -> ClassifierResult:
    """Combinatorial WLP prediction for connected graphs.

    True when there are more vertices than edges, or otherwise when the
    (a-1)-fold half-hollow subdivision is not bipartite; always agrees
    with the direct rank computation.
    """
    if graph.dim != 1 or not graph.is_pure():
        raise InputError("classifier input must be a graph (pure, dimension 1)")
    if a <= 1:
        raise RangeError("need a > 1")
    adj = _adjacency(graph.vertices, graph.facets)
    if len(_reachable(adj, graph.vertices[0])) != len(graph.vertices):
        raise InputError("classifier input must be connected")
    v, e = len(graph.vertices), len(graph.facets)
    if v > e:
        return ClassifierResult(True, f"tree-like: {v} vertices > {e} edges")
    sub = subdivision.hesd(graph, a - 1)
    bip = subdivision.is_bipartite(sub)
    if bip:
        return ClassifierResult(False, f"subdivision hesd(G,{a - 1}) is bipartite and v <= e")
    return ClassifierResult(True, f"subdivision hesd(G,{a - 1}) contains an odd cycle")


def divergence_bound_check(F: Polynomial, a: int, n: Optional[int] = None) -> bool:
    """Degree bound for cap-bounded divergence-free polynomials.

    Preconditions: F has zero divergence and no exponent reaches a.  The
    verdict deg F <= n(a-1)/2 should always be true; a False return is a
    falsification event for the caller to report loudly.
    """
    return _degree_bound_check(F, a, n, differentiate)


def contraction_bound_check(F: Polynomial, a: int, n: Optional[int] = None) -> bool:
    """``divergence_bound_check`` on the divided-power rescaling of F,
    read from F itself.  ``differentiate`` is contraction conjugated by
    that rescaling, so the sum of the variables differentiates the
    rescaled F to zero exactly when it contracts F to zero; and the
    rescaling keeps every monomial, so the exponent and degree bounds read
    F's monomials.  No factorial is taken."""
    return _degree_bound_check(F, a, n, contract)


def _degree_bound_check(F, a, n, act) -> bool:
    if F.is_zero():
        raise HypothesisError("zero polynomial")
    variables = F.variables()
    L = sum_of_variables(variables)
    if not act(L, F).is_zero():
        raise HypothesisError("F must have zero divergence")
    for m in F.terms:
        if any(e >= a for _, e in m.exps):
            raise HypothesisError(f"monomial {m} violates the exponent bound {a}")
    if n is None:
        n = len(variables)
    return 2 * F.degree() <= n * (a - 1)
