"""Exact sparse polynomials, Stanley-Reisner machinery and artinian
monomial algebras.

Coefficients are exact rationals end to end.  Inside the engine a
monomial is its exponent tuple, the sorted pairs of ``Monomial.exps``; a
``Monomial`` is built only where a result leaves the library.  Monomials
of equal degree are ordered lexicographically ascending on their exponent
vectors over ascending variable ids (``_order_key``); every basis and
matrix in the library is emitted in this graded-lex order so outputs are
stable.  Every basis, of a capped frame or of a quotient by extra forms,
comes from the cached ``standard_monomials``: a frame is the quotient by
its power generators.

The matrix builders (a quotient's span, ×f and the symmetry-adapted
×L) work on integer codes of monomials (``code``): a product is
a sum of codes and a quotient a difference looked up in the lower piece,
through each graded piece's cached coded view (``coded_monomials``).
``_times`` and ``_over`` walk the exponent tuples for ``Monomial``,
``contract`` and the divisibility filters.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Optional

from . import linalg, subdivision
from .complexes import SimplicialComplex, _face_compositions, faces
from .errors import (
    EquigenerationError,
    HomogeneityError,
    MonomialError,
    ParseError,
    PreconditionError,
    PurityError,
    RangeError,
)


class Monomial:
    """Monomial as a sparse map variable-id -> positive exponent."""

    __slots__ = ("exps", "degree", "_hash")

    def __init__(self, exps):
        if isinstance(exps, dict):
            items = tuple(sorted((v, e) for v, e in exps.items() if e))
        else:
            items = tuple(sorted(exps))
        for v, e in items:
            if e <= 0:
                raise ValueError("exponents must be positive")
        self.exps = items
        self.degree = sum(e for _, e in items)
        self._hash = hash(items)

    @classmethod
    def variable(cls, v: int, power: int = 1) -> "Monomial":
        return cls(((v, power),)) if power else cls(())

    def exponent(self, v: int) -> int:
        for w, e in self.exps:
            if w == v:
                return e
        return 0

    @property
    def support(self) -> frozenset:
        return frozenset(v for v, _ in self.exps)

    @classmethod
    def _trusted(cls, items: tuple, degree: int) -> "Monomial":
        """A monomial from sorted positive exponent pairs of the given
        degree, skipping the constructor's checks."""
        m = object.__new__(cls)
        m.exps = items
        m.degree = degree
        m._hash = hash(items)
        return m

    def times(self, other: "Monomial") -> "Monomial":
        # a product of valid monomials is valid (``_times``)
        return Monomial._trusted(_times(self.exps, other.exps), self.degree + other.degree)

    def over(self, other: "Monomial") -> Optional["Monomial"]:
        """self / other, or None when other does not divide self
        (``_over`` on the exponent tuples)."""
        if other.degree > self.degree:
            return None
        q = _over(self.exps, other.exps)
        return None if q is None else Monomial._trusted(q, self.degree - other.degree)

    def divides(self, other: "Monomial") -> bool:
        return other.over(self) is not None

    def order_key(self) -> tuple:
        """Graded-lex key: degree, then ``_order_key`` of the exponents."""
        return (self.degree, _order_key(self.exps))

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.exps == other.exps

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Monomial({self})"

    def __str__(self):
        if not self.exps:
            return "1"
        return "*".join(f"x{v}^{e}" if e > 1 else f"x{v}" for v, e in self.exps)


_ONE = Monomial(())


def _order_key(exps) -> tuple:
    """The graded-lex key within one degree: the exponent vector over
    ascending variable ids; negated ids make the sparse pairs compare
    that way."""
    return tuple((-v, e) for v, e in exps)


def _times(exps, other):
    """The exponent pairs of exps * other: the one product walk.

    One merge of the two sorted tuples: the pairs of exps before each
    variable of other are copied, that variable's exponent is added to
    the one exps holds, if any, and the rest of exps is copied.
    """
    out, i, n = [], 0, len(exps)
    for v, e in other:
        while i < n and exps[i][0] < v:
            out.append(exps[i])
            i += 1
        if i < n and exps[i][0] == v:
            e += exps[i][1]
            i += 1
        out.append((v, e))
    return tuple(out) + exps[i:]


def _over(exps, other):
    """The exponent pairs of exps / other, or None when other does not
    divide exps: the one division walk.

    One walk over the two sorted tuples: the pairs of exps before each
    variable of other are copied, that variable's exponent is reduced
    (and dropped at zero), and a variable of other that exps lacks, or
    holds with a smaller exponent, ends the walk with None.
    """
    out = []
    rest = iter(exps)
    for v, e in other:
        for w, f in rest:
            if w == v:
                break
            if w > v:
                return None
            out.append((w, f))
        else:
            return None
        if f < e:
            return None
        if f > e:
            out.append((v, f - e))
    out.extend(rest)
    return tuple(out)


class Polynomial:
    """Sparse polynomial: map Monomial -> nonzero rational coefficient.

    Coefficients are stored as ``Fraction``; an ``int`` or a ``str`` is
    converted, anything else (floats included) is a ``TypeError``.
    """

    __slots__ = ("terms", "_hash")

    def __init__(self, terms=None):
        cleaned = {}
        for m, c in (terms or {}).items():
            c = c if isinstance(c, Fraction) else Fraction(linalg._exact(c))
            if c:
                cleaned[m] = c
        self.terms = cleaned
        self._hash = None

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls({})

    @classmethod
    def constant(cls, c) -> "Polynomial":
        return cls({_ONE: c})

    @classmethod
    def variable(cls, v: int, power: int = 1) -> "Polynomial":
        return cls({Monomial.variable(v, power): Fraction(1)})

    @classmethod
    def from_monomial(cls, m: Monomial, c=1) -> "Polynomial":
        return cls({m: c})

    def is_zero(self) -> bool:
        return not self.terms

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((m.degree for m in self.terms), default=-1)

    def is_homogeneous(self) -> bool:
        return len({m.degree for m in self.terms}) <= 1

    def variables(self) -> tuple:
        out = set()
        for m in self.terms:
            out.update(m.support)
        return tuple(sorted(out))

    def coefficient(self, m: Monomial) -> Fraction:
        return self.terms.get(m, Fraction(0))

    def __add__(self, other):
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, Fraction(0)) + c
        return Polynomial(out)

    def __sub__(self, other):
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, Fraction(0)) - c
        return Polynomial(out)

    def __neg__(self):
        return Polynomial({m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Polynomial({m: c * other for m, c in self.terms.items()})
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = m1.times(m2)
                out[m] = out.get(m, Fraction(0)) + c1 * c2
        return Polynomial(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    def sorted_terms(self):
        """Terms in graded-lex order: degree descending, then lex descending
        on exponent vectors, so sums of variables read x1 + x2 + ..."""
        return sorted(self.terms.items(), key=lambda mc: mc[0].order_key(), reverse=True)

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for m, c in self.sorted_terms():
            if m == _ONE:
                body = str(abs(c))
            else:
                mag = abs(c)
                body = str(m) if mag == 1 else f"{mag} {m}"
            pieces.append(("- " if c < 0 else "+ ") + body)
        head = pieces[0]
        head = "-" + head[2:] if head.startswith("- ") else head[2:]
        return " ".join([head] + pieces[1:])

    def __repr__(self):
        return f"Polynomial({self})"


_TOKEN = re.compile(r"\s*(?:(?P<sign>[+-])|(?P<rat>\d+/\d+|\d+)|(?P<var>x\d+)(?:\^(?P<pow>\d+))?|(?P<mul>\*))")


def parse_polynomial(text: str) -> Polynomial:
    """Parse the polynomial grammar: terms joined by + or -, each an
    optional rational coefficient followed by factors like ``x3^2``,
    with '*' optional between factors."""
    pos = 0
    terms = {}
    sign = 1
    coeff = None
    exps: dict = {}
    started = False

    def flush():
        nonlocal sign, coeff, exps, started
        if not started:
            raise ParseError(f"empty term in {text!r}")
        c = Fraction(sign) * (coeff if coeff is not None else 1)
        m = Monomial(exps)
        if c:
            terms[m] = terms.get(m, Fraction(0)) + c
        sign, coeff, exps, started = 1, None, {}, False

    text = text.strip()
    if not text:
        raise ParseError("empty polynomial")
    while pos < len(text):
        mt = _TOKEN.match(text, pos)
        if not mt or mt.end() == pos:
            raise ParseError(f"bad token at position {pos} in {text!r}")
        pos = mt.end()
        if mt.group("sign"):
            if started:
                flush()
            sign *= -1 if mt.group("sign") == "-" else 1
        elif mt.group("rat"):
            try:
                c = Fraction(mt.group("rat"))
            except ZeroDivisionError as exc:
                raise ParseError(f"zero denominator in {text!r}") from exc
            coeff = c if coeff is None else coeff * c
            started = True
        elif mt.group("var"):
            v = int(mt.group("var")[1:])
            p = int(mt.group("pow") or 1)
            if p:
                exps[v] = exps.get(v, 0) + p
            started = True
    flush()
    return Polynomial(terms)


def _integral(p: Polynomial):
    """p's terms as (monomial, integer) pairs over the lcm of its
    coefficients' denominators, and that lcm."""
    den = math.lcm(*(c.denominator for c in p.terms.values()))
    return [(m, c.numerator * (den // c.denominator)) for m, c in p.terms.items()], den


def contract(g: Polynomial, F: Polynomial) -> Polynomial:
    """Contraction action of g on F, extended bilinearly.

    On monomials, x^a acts on y^b by dropping to y^(b-a) when a <= b
    entrywise and by zero otherwise (``_over``).  The coefficients of g
    and of F are scaled to integers once, over their denominators'
    lcms; the products are summed as integers, keyed by exponent tuples,
    and divided by the product of the two lcms only when the output
    terms are built, one ``Monomial`` per term.
    """
    gs, gd = _integral(g)
    fs, fd = _integral(F)
    out = {}
    for ma, ca in gs:
        for mb, cb in fs:
            if ma.degree <= mb.degree and (q := _over(mb.exps, ma.exps)) is not None:
                out[q] = out.get(q, 0) + ca * cb
    den = gd * fd
    return Polynomial({
        Monomial._trusted(q, sum(e for _, e in q)): Fraction(c, den)
        for q, c in out.items() if c
    })


def _factorials(m: Monomial) -> int:
    """The product of the factorials of m's exponents."""
    out = 1
    for _, e in m.exps:
        out *= math.factorial(e)
    return out


def differentiate(g: Polynomial, F: Polynomial) -> Polynomial:
    """Partial-derivative action of g on F (characteristic zero).

    x^a takes y^b to the falling factorial b!/(b-a)! times y^(b-a), so
    differentiation is contraction conjugated by divided powers: scale
    each term of F by b!, contract, and divide each output term by its
    own factorials (``divided_power_rescale``).  The factorials are read
    once per term, never per pair of terms.
    """
    raised = Polynomial({m: c * _factorials(m) for m, c in F.terms.items()})
    return divided_power_rescale(contract(g, raised))


def sum_of_variables(var_ids) -> Polynomial:
    return Polynomial({Monomial.variable(v): Fraction(1) for v in var_ids})


def divided_power_rescale(F: Polynomial) -> Polynomial:
    """Divide each coefficient by the product of factorials of exponents.

    Converts contraction annihilation into differentiation annihilation:
    the rescaled polynomial has zero divergence exactly when the sum of
    variables contracts the original to zero.
    """
    return Polynomial({m: c / _factorials(m) for m, c in F.terms.items()})


@dataclass(frozen=True)
class IdealPresentation:
    """Homogeneous generators over an explicit variable set."""

    generators: tuple
    variables: tuple

    def __post_init__(self):
        for g in self.generators:
            if g.is_zero():
                raise PreconditionError("zero generator")
            if not g.is_homogeneous():
                raise HomogeneityError(f"non-homogeneous generator {g}")

    @classmethod
    def make(cls, gens, variables=None) -> "IdealPresentation":
        gens = tuple(gens)
        if variables is None:
            vs = set()
            for g in gens:
                vs.update(g.variables())
            variables = tuple(sorted(vs))
        return cls(gens, tuple(variables))

    def degrees(self) -> tuple:
        return tuple(g.degree() for g in self.generators)


def stanley_reisner_generators(cx: SimplicialComplex) -> IdealPresentation:
    """Squarefree monomials of the minimal non-faces.

    Every proper subset of a minimal non-face is a face, so dropping any
    one of its vertices leaves a face of at most dim + 1 vertices: a
    minimal non-face has at most dim + 2 vertices, and larger sizes are
    not tried.
    """
    all_faces = set(cx.all_faces())
    minimal = []
    for size in range(1, min(len(cx.vertices), cx.dim + 2) + 1):
        for combo in combinations(cx.vertices, size):
            s = frozenset(combo)
            if s in all_faces:
                continue
            if any(frozenset(sub) not in all_faces for sub in combinations(combo, size - 1)):
                continue  # some proper subset is already a non-face
            minimal.append(s)
    gens = [
        Polynomial.from_monomial(Monomial({v: 1 for v in s}))
        for s in sorted(minimal, key=sorted)
    ]
    return IdealPresentation.make(gens, variables=cx.vertices)


def facet_ideal(cx: SimplicialComplex) -> IdealPresentation:
    """One squarefree monomial per facet."""
    gens = [Polynomial.from_monomial(Monomial({v: 1 for v in f})) for f in cx.facets]
    return IdealPresentation.make(gens, variables=cx.vertices)


class ArtinianFrame:
    """A complex together with exponent caps, presenting the artinian
    quotient whose standard monomials are the cap-bounded face-supported
    monomials.  Caps are integers of at least 2: one for every vertex, a
    list in vertex order or a dict by vertex; anything else is a
    ``RangeError``."""

    __slots__ = ("complex", "caps", "_hash")

    def __init__(self, complex: SimplicialComplex, caps):
        self.complex = complex
        if isinstance(caps, str) or not hasattr(caps, "__iter__"):
            caps = {v: caps for v in complex.vertices}
        elif not isinstance(caps, dict):
            caps = list(caps)
            if len(caps) != len(complex.vertices):
                raise RangeError(
                    f"{len(caps)} positional caps for {len(complex.vertices)} vertices"
                )
            caps = dict(zip(complex.vertices, caps))
        if set(caps) != set(complex.vertices):
            raise RangeError("caps must cover exactly the vertex set")
        for v, a in caps.items():
            # the codes of ``coded_monomials`` take their base from the caps
            if isinstance(a, bool) or not isinstance(a, int):
                raise RangeError(f"cap {a!r} at vertex {v} is not an integer")
            if a < 2:
                raise RangeError(f"cap {a} at vertex {v}: caps below 2 kill the variable")
        self.caps = tuple(sorted(caps.items()))
        self._hash = hash((complex, self.caps))

    @property
    def cap_map(self) -> dict:
        return dict(self.caps)

    def socle_degree(self) -> int:
        return max(self.socle_degrees())

    def socle_degrees(self) -> frozenset:
        """The degrees k in which the socle {f : x_v f = 0 for every v} of
        A = K[Δ]/(x_v^{a_v}) meets A_k.

        A is graded by exponent vectors and the x_v are homogeneous, so the
        socle is spanned by the standard monomials in it.  A standard
        monomial m lies in it iff every x_v m is non-standard.  For v in
        supp(m) that says e_v = a_v − 1.  For v outside supp(m), x_v m is
        non-standard only if supp(m) ∪ {v} is a non-face (a_v ≥ 2), and for
        every such v that says supp(m) is a facet.  So the socle monomials
        are the products of x_v^{a_v − 1} over v in F, one per facet F, in
        degree Σ_{v∈F} (a_v − 1).
        """
        caps = self.cap_map
        return frozenset(sum(caps[v] - 1 for v in f) for f in self.complex.facets)

    def linear_form(self) -> Polynomial:
        return sum_of_variables(self.complex.vertices)

    def power_generators(self):
        return [Polynomial.variable(v, a) for v, a in self.caps]

    def __eq__(self, other):
        return (
            isinstance(other, ArtinianFrame)
            and self.complex == other.complex
            and self.caps == other.caps
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        caps = {v: a for v, a in self.caps}
        return f"ArtinianFrame({self.complex!r}, caps={caps})"


def face_monomials(cx: SimplicialComplex, k: int, caps: Optional[dict] = None) -> tuple:
    """Exponent tuples of the degree-k monomials supported on faces,
    exponents below caps.

    Vertices missing from caps, or all with caps None, are bounded by k
    itself (no cap).  Output is in graded-lex ascending order
    (``_order_key``), sorted once.
    """
    out = [tuple(zip(vs, combo)) for vs, combo in _face_compositions(cx, k, caps)]
    out.sort(key=_order_key)
    return tuple(out)


def standard_monomials(cx: SimplicialComplex, k: int, caps=(), filters=()) -> tuple:
    """Exponent tuples of the degree-k standard monomials, in graded-lex
    order, of the Stanley-Reisner ring modulo x_v^a over the (v, a) pairs
    of caps, ascending in v as in ``ArtinianFrame.caps``, and the exponent
    tuples in filters: the one basis of every frame and every quotient.
    Caps and filters that cannot bite in degree k leave the cache key."""
    if k < 0:
        return ()
    return _standard_monomials(cx, k, *_biting(k, caps, filters))


def _biting(k, caps, filters) -> tuple:
    """The caps and filters that can bite in degree k, as cache keys."""
    return (tuple(p for p in caps if p[1] <= k),
            tuple(sorted({f for f in filters if sum(e for _, e in f) <= k})))


@lru_cache(maxsize=2048)
def _standard_monomials(cx, k, caps: tuple, filters: tuple) -> tuple:
    monos = face_monomials(cx, k, dict(caps))
    if not filters:
        return monos
    return tuple(m for m in monos if all(_over(m, f) is None for f in filters))


def code_base(top: int) -> int:
    """The base of the codes of monomials whose exponents are at most
    top: the least power of two above it (and at least 2), so that
    builders with nearby bounds, such as consecutive degrees, share one
    coded view of a piece."""
    return 1 << max(top, 1).bit_length()


@lru_cache(maxsize=64)
def exponent_weights(cx: SimplicialComplex, base: int) -> dict:
    """B^pos(v) per vertex v, pos(v) its index in ``cx.vertices``: the
    weight of one unit of v's exponent in ``coded_monomials``."""
    return {v: base ** i for i, v in enumerate(cx.vertices)}


def code(exps, weights: dict) -> int:
    """The code of an exponent tuple under ``exponent_weights``."""
    out = 0
    for v, e in exps:
        out += e * weights[v]
    return out


def coded_terms(cx: SimplicialComplex, f: Polynomial, base: int) -> list:
    """The (code, coefficient) pairs of f's terms, each coefficient in
    ``linalg``'s normal form."""
    weights = exponent_weights(cx, base)
    return [(code(t.exps, weights), linalg._exact(c)) for t, c in f.terms.items()]


def coded_monomials(cx: SimplicialComplex, k: int, base: int, caps=(), filters=()) -> dict:
    """The coded view of the graded piece ``standard_monomials(cx, k,
    caps, filters)``: a dict from each standard monomial's code to its
    position, in the same order.  The dict is cached and shared by every
    caller, so none may change it.

    The code of m is Σ e_v B^pos(v), B = base and pos(v) the index of v
    in ``cx.vertices`` (never the id, which may be huge).  The caller
    takes B from ``code_base`` above every exponent of every monomial it
    codes or forms.  Then a code is the base-B numeral whose digits are
    m's exponents, so distinct monomials have distinct codes and the
    digit sum of code(m) is deg m, and:

    Products.  code(m) + code(t) = code(m·t): every exponent of m·t is
    below B, so no digit carries.

    Quotients.  Let b have degree k and t degree d.  If t divides b,
    code(b) - code(t) = code(b/t) digit by digit.  If not, some e_v(t) >
    e_v(b), and the difference is no code of a degree-(k - d) monomial:
    if it is negative it is no code at all, and otherwise subtracting
    digit by digit borrows at least once (with no borrow every digit of b
    would be at least t's).  Summing x_i - y_i - β_i = z_i - B β_{i+1}
    over the digits, β_i the borrow into digit i (β_0 = 0, and the last
    borrow out is 0 since x >= y), the digit sum of z = x - y is s(x) -
    s(y) + (B - 1)·(number of borrows) > k - d.  A quotient b/t of a
    standard monomial b is standard in degree k - d under the same caps
    and filters (faces, caps and filters all pass to divisors).  So t
    divides b exactly when code(b) - code(t) is a code of that lower
    piece, and then the code is b/t's.
    """
    if k < 0:
        return {}
    return _coded_monomials(cx, k, *_biting(k, caps, filters), base)


# a view is rebuilt from the cached exponent tuples in one pass, and a
# builder reads at most a few pieces, so only the recent views are kept
@lru_cache(maxsize=32)
def _coded_monomials(cx, k, caps: tuple, filters: tuple, base: int) -> dict:
    weights = exponent_weights(cx, base)
    return {code(m, weights): j for j, m in enumerate(_standard_monomials(cx, k, caps, filters))}


def standard_basis(frame: ArtinianFrame, k: int):
    """Ordered monomial basis of the degree-k piece of the frame algebra."""
    if k < 0:
        raise RangeError("degree must be non-negative")
    return [Monomial._trusted(m, k) for m in standard_monomials(frame.complex, k, frame.caps)]


def hilbert_function(frame: ArtinianFrame, k: int) -> int:
    return len(standard_monomials(frame.complex, k, frame.caps))


def multiplication_matrix(frame: ArtinianFrame, f: Polynomial, k: int) -> linalg.ExactMatrix:
    """Matrix of multiplication by f from degree k to degree k + deg f.

    Rows are the higher-degree standard monomials, columns the degree-k
    ones, both in graded-lex order.  The transpose represents the
    contraction action of f on the dual in the same bases.  Products are
    sums of codes (``coded_monomials``): standard monomials have
    exponents below their caps and the terms of f at most deg f, so every
    exponent coded or formed is at most max cap - 1 + deg f.  Distinct
    terms give distinct products, and a product missing from the rows is
    zero in the frame.
    """
    if not f.is_homogeneous():
        raise HomogeneityError("multiplication needs a homogeneous form")
    d = f.degree()
    if d < 0:
        raise HomogeneityError("zero form")
    foreign = set(f.variables()) - set(frame.complex.vertices)
    if foreign:
        raise PreconditionError(f"form mentions unknown variables: {sorted(foreign)}")
    base = code_base(max(a for _, a in frame.caps) - 1 + d)
    terms = coded_terms(frame.complex, f, base)
    cols = coded_monomials(frame.complex, k, base, frame.caps)
    rows = coded_monomials(frame.complex, k + d, base, frame.caps)
    entries = {}
    for m, j in cols.items():
        for t, c in terms:
            if (i := rows.get(m + t)) is not None:
                entries[i, j] = c
    return linalg.ExactMatrix._trusted(len(rows), len(cols), entries)


@dataclass(frozen=True)
class LogMatrix:
    """Exponent matrix of a monomial ideal; rows follow the generators."""

    matrix: linalg.ExactMatrix
    row_labels: tuple
    variables: tuple


def log_matrix(ideal: IdealPresentation) -> LogMatrix:
    """Exponent matrix: entry (i, j) is the exponent of variable j in
    generator i; row sums equal generator degrees."""
    monos = []
    for g in ideal.generators:
        if not g.is_monomial():
            raise MonomialError(f"non-monomial generator {g}")
        monos.append(next(iter(g.terms)))
    col = {v: j for j, v in enumerate(ideal.variables)}
    entries = {}
    for i, m in enumerate(monos):
        for v, e in m.exps:
            entries[(i, col[v])] = e
    mat = linalg.ExactMatrix(len(monos), len(ideal.variables), entries)
    return LogMatrix(mat, tuple(monos), ideal.variables)


def analytic_spread(ideal: IdealPresentation) -> int:
    """Rank of the log matrix; valid for equigenerated monomial ideals."""
    if not ideal.generators:
        raise PreconditionError("empty ideal has no analytic spread here")
    degs = set(ideal.degrees())
    if len(degs) != 1:
        raise EquigenerationError(f"generators of mixed degrees {sorted(degs)}")
    return linalg.rank(log_matrix(ideal).matrix)


@dataclass(frozen=True)
class HesdLogComparison:
    equal: bool
    multiplication: linalg.ExactMatrix
    hesd_log: LogMatrix
    column_map: tuple
    row_map: tuple


def multiplication_equals_hesd_log(cx: SimplicialComplex, a: int) -> HesdLogComparison:
    """Compare the degree-d(a-1) multiplication matrix with the log matrix
    of the facet ideal of the (a-1)-fold half-hollow subdivision of the
    top incidence complex, under the canonical monomial/lattice-point
    bijection."""
    if not cx.is_pure():
        raise PurityError("the comparison needs a pure complex")
    if a <= 1:
        raise RangeError("need a > 1")
    d = cx.dim
    frame = ArtinianFrame(cx, a)
    t = d * (a - 1)
    L = frame.linear_form()
    mult = multiplication_matrix(frame, L, t)

    inc = subdivision.incidence_complex(cx, d)
    sub = subdivision.hesd(inc, a - 1)
    hlog = log_matrix(facet_ideal(sub))

    ridges = faces(cx, d - 1)
    ridge_pos = {r: p for p, r in enumerate(ridges)}
    label_to_vid = {lab.coords: v for v, lab in sub.labels.items()}
    vid_col = {v: j for j, v in enumerate(hlog.variables)}

    def to_point(m: Monomial):
        """Lattice point(s) of a degree-t standard monomial, one per
        facet presentation; well-definedness demands a single point."""
        points = set()
        for F in cx.facets:
            if not m.support <= F:
                continue
            coords = [0] * len(ridges)
            for i in sorted(F):
                coords[ridge_pos[F - {i}]] += (a - 1) - m.exponent(i)
            points.add(tuple(coords))
        return points

    cols = standard_basis(frame, t)
    col_map = []
    ok = True
    seen_vids = set()
    for m in cols:
        pts = to_point(m)
        if len(pts) != 1:
            ok = False
            break
        vid = label_to_vid.get(next(iter(pts)))
        if vid is None or vid in seen_vids:
            ok = False
            break
        seen_vids.add(vid)
        col_map.append(vid)
    row_map = []
    if ok and len(seen_vids) == len(sub.vertices):
        hesd_facets = set(sub.facets)
        seen_facets = set()
        for support in mult.row_dicts():
            if any(v != 1 for v in support.values()):
                ok = False
                break
            facet = frozenset(col_map[j] for j in support)
            if facet not in hesd_facets or facet in seen_facets:
                ok = False
                break
            seen_facets.add(facet)
            row_map.append(facet)
        if ok and len(seen_facets) != len(sub.facets):
            ok = False
    else:
        ok = False
    return HesdLogComparison(ok, mult, hlog, tuple(col_map), tuple(row_map))
