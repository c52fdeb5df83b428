"""Seeded inputs, job lists and exact checks for the three workloads.

A workload is built by ``build(name, seed, workdir, small)`` into a list of
``Job``s.  Building is the set-up phase: it draws every random choice from
``random.Random(seed)`` and hands lefkit only finished complexes, forms and
argument vectors.  A job's ``run`` is the timed call; lefkit functions are
looked up on their modules at call time, so the tracer's wrappers see
them.  A job's ``check`` runs after the timed pass and returns ``None`` or
a one-line reason for the mismatch.

At ``REFERENCE_SEED`` every complex keeps its shipped vertex ids, which is
where CLI reports are compared byte for byte.  At other seeds the vertex
ids are a random injective relabelling and only label-free fields are
compared; per-degree ranks do not depend on labels, so they are compared
at every seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
from fractions import Fraction

from lefkit import cli, fixtures, lefschetz, monomials
from lefkit.complexes import SimplicialComplex
from lefkit.monomials import ArtinianFrame, Monomial, Polynomial

REFERENCE_SEED = 0
WORKLOADS = ("wlp-ladder", "sop-duality", "cli-batch")


class Job:
    """``record`` maps a result to the value kept in expected.json, for
    jobs whose check compares against a recorded value."""

    __slots__ = ("key", "run", "check", "record")

    def __init__(self, key, run, check, record=None):
        self.key = key
        self.run = run
        self.check = check
        self.record = record


class Context:
    """What checks may consult: recorded values and every job's result."""

    def __init__(self, expected, seed, results):
        self.expected = expected
        self.seed = seed
        self.results = results


# --- complexes --------------------------------------------------------------


def relabel(facets, rng, seed, name, meta=None):
    """Complex with a seeded injective relabelling; returns (complex, map)."""
    verts = sorted({v for f in facets for v in f})
    if seed == REFERENCE_SEED:
        ids = verts
    else:
        ids = rng.sample(range(1, 4 * len(verts) + 1), len(verts))
    vmap = dict(zip(verts, ids))
    cx = SimplicialComplex(
        [{vmap[v] for v in f} for f in facets], name=name, meta=meta
    )
    return cx, vmap


def shipped(name):
    cx = fixtures.load(name)
    return [set(f) for f in cx.facets], cx.meta


def cross_polytope_facets(d):
    """Boundary of the d-dimensional cross-polytope; antipodes 2i-1, 2i."""
    return [set(c) for c in itertools.product(*[(2 * i + 1, 2 * i + 2) for i in range(d)])]


def antipodal_pairs(d):
    return [(2 * i + 1, 2 * i + 2) for i in range(d)]


def _colored_sop(vmap, d):
    """x_a + x_b for each antipodal pair of a relabelled cross-polytope:
    the sop of its balanced coloring, whose color classes are the pairs."""
    return [Polynomial({Monomial({vmap[a]: 1}): 1, Monomial({vmap[b]: 1}): 1})
            for a, b in antipodal_pairs(d)]


def random_graph(rng, n, m):
    """Connected graph with n vertices and m edges: a random tree plus
    random extra edges, on random vertex ids."""
    ids = rng.sample(range(1, 10 * n + 1), n)
    edges = {frozenset((ids[i], ids[rng.randrange(i)])) for i in range(1, n)}
    spare = [frozenset(p) for p in itertools.combinations(ids, 2) if frozenset(p) not in edges]
    rng.shuffle(spare)
    edges.update(spare[: m - (n - 1)])
    return SimplicialComplex(sorted(edges, key=sorted))


def h_vector(facets):
    """h-vector of a pure complex from its facets, by the f-to-h transform."""
    d = len(facets[0])
    seen = set()
    for f in facets:
        for k in range(d + 1):
            seen.update(frozenset(c) for c in itertools.combinations(sorted(f), k))
    fvec = [sum(1 for s in seen if len(s) == i) for i in range(d + 1)]
    h = []
    for k in range(d + 1):
        h.append(sum((-1) ** (k - i) * _binom(d - i, k - i) * fvec[i] for i in range(k + 1)))
    while h and h[-1] == 0:
        h.pop()
    return h


def _binom(n, k):
    if k < 0 or k > n:
        return 0
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out


def _convolve(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


# --- wlp-ladder -------------------------------------------------------------

# (vertices, edges) of the random connected graphs; the Hilbert function of
# a graph frame depends only on these two numbers, so fixing them fixes the
# matrix sizes while the seed picks the graphs
GRAPH_SHAPES = [(3, 2), (3, 3), (4, 3), (4, 4), (5, 4), (4, 5),
                (5, 5), (6, 5), (4, 6), (5, 6), (6, 6), (7, 6)] * 2
GRAPH_CAPS = (2, 3, 4)
FIXTURE_CAPS = {
    "OCT": (2, 3, 4, 5), "FAN4": (2, 3, 4, 5), "DUNCE": (2, 3, 4, 5),
    "BALL10": (2,), "CROSS4": (2,), "C3": (2, 3, 4, 5), "C4": (2, 3, 4, 5),
    "EDGE": (2, 3), "PATH3": (2, 3),
}
# the top of the ladder; the 7760x7232 rung (XPOLY5 caps 5) is left out
# because one rank there takes about half a minute
LADDER = [("XPOLY4", 3), ("XPOLY4", 4), ("BALL10", 3), ("XPOLY5", 3),
          ("BALL10", 4), ("XPOLY5", 4)]
SMALL_LADDER = [("XPOLY4", 3)]


def _ranks(report):
    return [p.rank for p in report.per_degree]


def _wlp_job(key, cx, caps, graph, recorded):
    def run():
        return lefschetz.wlp_check(ArtinianFrame(cx, caps))

    def check(report, ctx):
        per = report.per_degree
        for p in per:
            if p.full_rank != (p.rank == min(p.dim_from, p.dim_to)):
                return f"degree {p.k}: full_rank flag disagrees with its rank"
        if report.holds != all(p.full_rank for p in per):
            return "holds disagrees with the per-degree verdicts"
        if graph:
            predicted = lefschetz.graph_wlp_classifier(cx, caps).wlp
            if predicted != report.holds:
                return f"classifier says {predicted}, ranks say {report.holds}"
        if recorded:
            ranks = ctx.expected["wlp-ladder"].get(key)
            if _ranks(report) != ranks:
                return f"ranks {_ranks(report)} != recorded {ranks}"
        return None

    return Job(key, run, check, _ranks if recorded else None)


def build_wlp_ladder(seed, rng, workdir, small):
    jobs = []
    shapes = GRAPH_SHAPES[:2] if small else GRAPH_SHAPES
    for i, (n, m) in enumerate(shapes):
        g = random_graph(rng, n, m)
        for a in GRAPH_CAPS:
            jobs.append(_wlp_job(f"graph{i}/v{n}e{m}@{a}", g, a, True, False))
    for name, caps_list in FIXTURE_CAPS.items():
        facets, meta = shipped(name)
        cx, _ = relabel(facets, rng, seed, name, meta)
        for a in caps_list[:1] if small else caps_list:
            jobs.append(_wlp_job(f"{name}@{a}", cx, a, cx.dim == 1, True))
    built = {}
    for name, a in SMALL_LADDER if small else LADDER:
        if name not in built:
            if name == "BALL10":
                facets, meta = shipped(name)
            else:
                facets, meta = cross_polytope_facets(int(name[-1])), None
            built[name] = relabel(facets, rng, seed, name, meta)[0]
        jobs.append(_wlp_job(f"{name}@{a}", built[name], a, False, True))
    return jobs


# --- sop-duality ------------------------------------------------------------

# complex: (accepted linear, accepted quadratic, rejected) candidates.  The
# many cheap C4 jobs put the median job inside a dense run of C4 inverse
# pieces, not at the jump between OCT degree-3 and degree-4 quotients,
# where job_p50_s would flip with the timing of one or two jobs.
SOP_PLAN = {"OCT": (5, 5, 2), "C4": (12, 4, 2), "CROSS4": (1, 0, 2)}
SMALL_SOP_PLAN = {"OCT": (1, 0, 1)}


def _nullspace(rows, ncols):
    """Basis of the right kernel of a small Fraction matrix (reference
    elimination, independent of lefkit.linalg)."""
    m = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        p = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -m[i][fc]
        basis.append(v)
    return basis


def sop_truth(facets, linear, quadratic):
    """Exact sop criterion for linear forms plus at most one diagonal
    quadratic form sum(c_v x_v^2).

    The quotient is artinian iff on every facet's coordinate subspace the
    forms have no common nonzero root over an algebraically closed field:
    for linear forms only, the facet restriction is invertible; with the
    quadratic, the linear restriction has a one-dimensional kernel w and
    the quadratic does not vanish at w.
    """
    for f in facets:
        vs = sorted(f)
        rows = [[Fraction(form.get(v, 0)) for v in vs] for form in linear]
        kernel = _nullspace(rows, len(vs))
        if quadratic is None:
            if kernel:
                return False
        else:
            if len(kernel) != 1:
                return False
            w = kernel[0]
            if sum(quadratic.get(v, 0) * x * x for v, x in zip(vs, w)) == 0:
                return False
    return True


def _linear(coeffs):
    return Polynomial({Monomial({v: 1}): c for v, c in coeffs.items() if c})


def _diagonal_quadratic(coeffs):
    return Polynomial({Monomial({v: 2}): c for v, c in coeffs.items() if c})


def _draw_candidate(rng, cx, quadratic, lo, hi):
    """Coefficient maps for d linear forms (d+1 without a quadratic) and
    optionally a diagonal quadratic, each entry in lo..hi, no form zero."""
    d = cx.dim

    def coeffs():
        while True:
            c = {v: rng.randint(lo, hi) for v in cx.vertices}
            if any(c.values()):
                return c

    linear = [coeffs() for _ in range(d if quadratic else d + 1)]
    quad = coeffs() if quadratic else None
    return linear, quad


def _sample_sops(rng, cx, n_lin, n_quad, n_rej):
    """Rejection-sample candidates until the plan's counts are met.  Sops
    get coefficients 1..3, so every form has full support; non-sops get
    0/1 coefficients, which make singular facet restrictions common."""
    facets = [set(f) for f in cx.facets]
    out = []
    for quadratic, count, want, lo, hi in (
        (False, n_lin, True, 1, 3), (True, n_quad, True, 1, 3),
        (False, (n_rej + 1) // 2, False, 0, 1), (True, n_rej // 2, False, 0, 1),
    ):
        got = 0
        while got < count:
            linear, quad = _draw_candidate(rng, cx, quadratic, lo, hi)
            if sop_truth(facets, linear, quad) != want:
                continue
            forms = [_linear(c) for c in linear]
            if quad is not None:
                forms.append(_diagonal_quadratic(quad))
            out.append((lefschetz.SopCandidate.make(forms), want))
            got += 1
    return out


def _random_face_monomial(rng, cx, k):
    face = sorted(rng.choice(cx.facets))
    exps = {}
    for _ in range(k):
        v = rng.choice(face)
        exps[v] = exps.get(v, 0) + 1
    return Monomial(exps)


def _ideal_member(rng, cx, theta, k):
    while True:
        g = Polynomial()
        for th in theta:
            if th.degree() <= k:
                m = _random_face_monomial(rng, cx, k - th.degree())
                g = g + Polynomial({m: rng.randint(1, 5)}) * th
        if not g.is_zero():
            return g


def _random_form(rng, cx, k):
    return Polynomial({_random_face_monomial(rng, cx, k): rng.randint(1, 5) for _ in range(3)})


def _pairing_vanishes(g, piece):
    """Inverse-system oracle: g lies in the ideal plus the sop in degree k
    iff it pairs to zero with every element of the degree-k inverse piece."""
    return all(sum(c * F.terms.get(m, 0) for m, c in g.terms.items()) == 0 for F in piece.basis)


def _sop_jobs(key, cx, cand, accepted, h, rng):
    theta = list(cand.theta)
    expected_hf = h
    for th in theta:
        expected_hf = _convolve(expected_hf, [1] * th.degree())
    vanish = len(expected_hf)
    values = expected_hf + [0]

    def check_sop(res, ctx):
        if res.is_sop != accepted:
            return f"is_sop {res.is_sop}, the facet criterion says {accepted}"
        if accepted and (list(res.hilbert_values) != values or res.vanishing_degree != vanish):
            return f"Hilbert values {list(res.hilbert_values)} != product formula {values}"
        return None

    jobs = [Job(f"{key}/is_sop", lambda: lefschetz.is_sop(cx, cand), check_sop)]
    if not accepted:
        return jobs
    for k in range(vanish + 1):
        def check_piece(piece, ctx, k=k):
            if piece.degree != k or piece.dimension != values[k]:
                return f"inverse piece dim {piece.dimension} != {values[k]} at degree {k}"
            return None

        def check_hf(v, ctx, k=k):
            return None if v == values[k] else f"quotient_hilbert {v} != {values[k]} at degree {k}"

        jobs.append(Job(f"{key}/inv{k}",
                        lambda k=k: lefschetz.inverse_system_piece(cx, theta, k), check_piece))
        jobs.append(Job(f"{key}/hf{k}",
                        lambda k=k: lefschetz.quotient_hilbert(cx, theta, k), check_hf))
    top = max(th.degree() for th in theta)
    for kind, k in (("member", rng.randint(top, vanish - 1)), ("form", rng.randint(1, vanish - 1))):
        g = _ideal_member(rng, cx, theta, k) if kind == "member" else _random_form(rng, cx, k)

        def check_membership(res, ctx, g=g, k=k, kind=kind):
            oracle = _pairing_vanishes(g, ctx.results[f"{key}/inv{k}"])
            if kind == "member" and not oracle:
                return "a constructed member pairs nonzero with the inverse system"
            if res != oracle:
                return f"membership {res}, inverse-system oracle {oracle} at degree {k}"
            return None

        jobs.append(Job(f"{key}/{kind}{k}",
                        lambda g=g: lefschetz.ideal_membership(cx, theta, g), check_membership))
    return jobs


def _unexpected_job(key, cx, theta, caps, t, values):
    f = monomials.sum_of_variables(cx.vertices)
    cand = lefschetz.SopCandidate.make(theta)

    def check(rep, ctx):
        if not (rep.u1 and rep.u2 and rep.u3 and rep.u4 and rep.u5 and rep.overall):
            return f"conditions {[rep.u1, rep.u2, rep.u3, rep.u4, rep.u5]} not all true"
        got = rep.witnesses["u1"]["quotient_hilbert"]
        return None if got == values else f"U1 Hilbert values {got} != {values}"

    return Job(key, lambda: lefschetz.verify_unexpected(cx, cand, f, caps, t), check)


def _elementary_symmetric(vertices, i):
    return Polynomial({Monomial({v: 1 for v in c}): 1 for c in itertools.combinations(vertices, i)})


def build_sop_duality(seed, rng, workdir, small):
    jobs = []
    built = {}
    for name, (n_lin, n_quad, n_rej) in (SMALL_SOP_PLAN if small else SOP_PLAN).items():
        facets, meta = shipped(name)
        cx, vmap = relabel(facets, rng, seed, name, meta)
        built[name] = (cx, vmap)
        h = h_vector([set(f) for f in cx.facets])
        for j, (cand, accepted) in enumerate(_sample_sops(rng, cx, n_lin, n_quad, n_rej)):
            jobs.extend(_sop_jobs(f"{name}#{j}", cx, cand, accepted, h, rng))
    for name, d in (("OCT", 3), ("CROSS4", 4)):
        if small and name != "OCT":
            continue
        cx, vmap = built[name]
        theta = _colored_sop(vmap, d)
        values = h_vector([set(f) for f in cx.facets]) + [0]
        jobs.append(_unexpected_job(f"{name}/colored", cx, theta, 2, d, values))
    if not small:
        cx, _ = built["OCT"]
        theta = [_elementary_symmetric(cx.vertices, i) for i in (1, 2, 3)]
        values = _convolve(_convolve([1, 3, 3, 1], [1, 1]), [1, 1, 1]) + [0]
        jobs.append(_unexpected_job("OCT/universal", cx, theta, 4, 6, values))
    return jobs


# --- cli-batch --------------------------------------------------------------

CLI_COMPLEXES = ("OCT", "CROSS4", "FAN4", "DUNCE", "BALL10", "C3", "C4", "EDGE",
                 "PATH3", "XPOLY5", "CONE5")
SMALL_CLI_COMPLEXES = ("OCT", "C4", "EDGE")
# every subcommand that takes only a complex runs on every complex
PER_COMPLEX = [
    ("info", []), ("hf", ["--caps", "2"]), ("wlp", ["--caps", "2"]),
    ("hesd", ["--r", "2"]), ("incidence", ["--i", "1"]), ("spread", []),
    ("collapse", []), ("colored-sop", []), ("dual-gen", []),
]
EXTRA = [
    ("OCT", "hf", ["--caps", "3"]), ("FAN4", "hf", ["--caps", "3"]),
    ("C4", "hf", ["--caps", "4", "--degrees", "0,2,4,6"]), ("XPOLY5", "hf", ["--caps", "3"]),
    ("OCT", "wlp", ["--caps", "3", "--embed-matrices"]),
    ("C3", "wlp", ["--caps", "3", "--embed-matrices"]),
    ("FAN4", "wlp", ["--caps", "3", "--screen", "101"]),
    ("DUNCE", "wlp", ["--caps", "3", "--screen", "101"]),
    ("OCT", "slp", ["--caps", "2"]), ("C4", "slp", ["--caps", "3"]),
    ("EDGE", "slp", ["--caps", "4"]), ("FAN4", "slp", ["--caps", "2"]),
    ("BALL10", "slp", ["--caps", "2"]),
    ("OCT", "kernel", ["--caps", "2", "--degree", "3", "--screen", "101", "--embed-matrices"]),
    ("C4", "kernel", ["--caps", "2", "--degree", "2"]),
    ("OCT", "kernel", ["--caps", "5", "--degree", "7"]),
    ("CROSS4", "kernel", ["--caps", "3", "--degree", "6"]),
    ("BALL10", "kernel", ["--caps", "4", "--degree", "9"]),
    ("OCT", "incidence", ["--i", "2"]), ("BALL10", "incidence", ["--i", "3"]),
    ("XPOLY5", "incidence", ["--i", "2"]),
    ("C4", "hesd", ["--r", "3"]), ("PATH3", "hesd", ["--r", "4"]),
    ("OCT", "spread", ["--embed-matrices", "--screen", "7"]),
]
SPREAD_IDEAL = "x1*x2;x2*x3;x3*x4;x1*x4;x2*x4"


def _write_complex(path, cx):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cx.to_json_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _cli_complexes(seed, rng):
    out = {}
    for name in CLI_COMPLEXES:
        if name == "XPOLY5":
            facets, meta = cross_polytope_facets(5), {"is_simplicial_sphere": True}
        elif name == "CONE5":
            facets, meta = [f | {11} for f in cross_polytope_facets(5)], {}
        else:
            facets, meta = shipped(name)
        out[name] = relabel(facets, rng, seed, name, meta)
    return out


def _sop_verify(path, cx, sop_text, caps, t):
    L = str(monomials.sum_of_variables(cx.vertices))
    return ["sop-verify", "--complex", path, "--sop", sop_text, "--f", L,
            "--caps", str(caps), "--t", str(t)]


def build_cli_batch(seed, rng, workdir, small):
    built = _cli_complexes(seed, rng)
    names = SMALL_CLI_COMPLEXES if small else CLI_COMPLEXES
    paths = {}
    for name in names:
        paths[name] = os.path.join(workdir, f"{name.lower()}.json")
        _write_complex(paths[name], built[name][0])
    commands = [(name, cmd, opts) for name in names for cmd, opts in PER_COMPLEX]
    commands += [c for c in EXTRA if c[0] in paths]
    argvs = []
    for name, cmd, opts in commands:
        flag = ["--complex", paths[name]]
        argvs.append((f"{cmd} {name} {' '.join(opts)}".strip(), [cmd, *flag, *opts]))
    oct_cx, oct_map = built["OCT"]
    colored = ";".join(str(p) for p in _colored_sop(oct_map, 3))
    argvs += [
        ("hf OCT --forms colored",
         ["hf", "--complex", paths["OCT"], "--caps", "2", "--forms", colored]),
        ("sop-verify OCT colored", _sop_verify(paths["OCT"], oct_cx, colored, 2, 3)),
        ("spread ideal", ["spread", "--ideal", SPREAD_IDEAL]),
    ]
    if not small:
        cr_cx, cr_map = built["CROSS4"]
        cr_colored = ";".join(str(p) for p in _colored_sop(cr_map, 4))
        universal = ";".join(str(_elementary_symmetric(oct_cx.vertices, i)) for i in (1, 2, 3))
        argvs += [
            ("sop-verify CROSS4 colored", _sop_verify(paths["CROSS4"], cr_cx, cr_colored, 2, 4)),
            ("hf OCT --forms universal", ["hf", "--complex", paths["OCT"], "--forms", universal]),
            ("sop-verify OCT universal", _sop_verify(paths["OCT"], oct_cx, universal, 4, 6)),
        ]
    jobs = []
    for i, (key, argv) in enumerate(argvs):
        out_path = os.path.join(workdir, f"report{i}.json")
        jobs.append(_cli_job(key, argv + ["--out", out_path], out_path))
    return jobs


def _cli_job(key, argv, out_path):
    def run():
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, err.getvalue()

    def record(res):
        return cli_observation(res[0], res[1], out_path)

    def check(res, ctx):
        rec = ctx.expected["cli-batch"].get(key)
        if rec is None:
            return "no recorded result for this command"
        got = record(res)
        if got["exit"] != rec["exit"] or got["error"] != rec["error"]:
            return f"exit {got['exit']} ({got['error']}), recorded {rec['exit']} ({rec['error']})"
        if ctx.seed == REFERENCE_SEED and got["sha256"] != rec["sha256"]:
            return "report bytes differ from the reference"
        if got["fields"] != rec["fields"]:
            return f"label-free fields differ: {got['fields']} != {rec['fields']}"
        return None

    return Job(key, run, check, record)


def cli_observation(code, err, out_path):
    """Exit code, error name, report hash and label-free report fields."""
    error = json.loads(err.strip().splitlines()[-1])["error"] if code else None
    if code or not os.path.exists(out_path):
        return {"exit": code, "error": error, "sha256": None, "fields": None}
    with open(out_path, "rb") as fh:
        data = fh.read()
    report = json.loads(data)
    fields = json.loads(json.dumps(_label_free(report)))
    return {"exit": code, "error": error, "sha256": hashlib.sha256(data).hexdigest(),
            "fields": fields}


def _matrix_shape(m):
    return [m["rows"], m["cols"], len(m["triplets"])]


def _label_free(r):
    """The part of a report that a vertex relabelling leaves unchanged."""
    if "per_degree" in r.get("wlp", {}):
        w = r["wlp"]
        return {"holds": w["holds"], "socle": w["socle_degree"], "per_degree": [
            [p["degree"], p["dim_from"], p["dim_to"], p["rank"], p["failure_mode"],
             _matrix_shape(p["matrix"]) if "matrix" in p else None, p.get("screen")]
            for p in w["per_degree"]]}
    if "slp" in r:
        s = r["slp"]
        return {"holds": s["holds"], "pairs": [
            [p["power"], p["degree"], p["dim_from"], p["dim_to"], p["rank"]] for p in s["per_pair"]]}
    if "conditions" in r:
        return {"conditions": r["conditions"], "overall": r["overall"],
                "u1": r["witnesses"]["u1"], "u2": r["witnesses"]["u2"],
                "u4": len(r["witnesses"]["u4"]["failing_powers"]), "u5": r["witnesses"]["u5"]}
    if "homology_ranks" in r:
        pm = r["pseudomanifold"]
        coloring = r["balanced_coloring"]
        return {"f": r["f_vector"], "h": r["h_vector"], "cm": r["cohen_macaulay"]["holds"],
                "pm": [pm["pure"], pm["strongly_connected"], pm["max_ridge_degree"],
                       len(pm["boundary_facets"]), pm["orientable"]],
                "homology": r["homology_ranks"], "sphere": r["homology_sphere"],
                "colors": None if coloring is None else sorted(
                    list(coloring.values()).count(c) for c in set(coloring.values()))}
    if "values" in r:
        return {"degrees": r["degrees"], "values": r["values"]}
    if "dimension" in r:
        return {"degree": r["degree"], "dimension": r["dimension"], "screen": r.get("screen"),
                "matrix": _matrix_shape(r["matrix"]) if "matrix" in r else None}
    if "analytic_spread" in r:
        return {"spread": r["analytic_spread"], "maximal": r["maximal"],
                "generators": len(r["generators"]), "screen": r.get("screen")}
    if "found" in r:
        return {"found": r["found"], "target": r["target_dim"], "steps": len(r.get("steps", [])),
                "residual_dim": r.get("residual_dim")}
    if "sop" in r:
        return {"forms": len(r["sop"]), "t": r["total_degree_t"],
                "colors": sorted(list(r["coloring"].values()).count(c)
                                 for c in set(r["coloring"].values()))}
    if "dual_generator" in r:
        terms = monomials.parse_polynomial(r["dual_generator"]).terms
        return {"terms": len(terms), "coefficients": sorted({str(abs(c)) for c in terms.values()})}
    if "facets" in r:
        return {"vertices": len(r["vertices"]), "facet_sizes": sorted(len(f) for f in r["facets"]),
                "labels": len(r.get("labels", {}))}
    raise ValueError(f"unknown report shape: {sorted(r)}")


# --- entry point ------------------------------------------------------------

# the job that takes most of a pass, where there is one
DOMINANT = {"wlp-ladder": "XPOLY5@4"}

_BUILDERS = {
    "wlp-ladder": build_wlp_ladder,
    "sop-duality": build_sop_duality,
    "cli-batch": build_cli_batch,
}


def build(name, seed, workdir, small=False):
    """Job list of a workload; every random choice comes from the seed.

    The list is then put in one fixed interleaved order, the same at every
    seed (the job list has the same shape at every seed): the many small
    jobs are spread over the whole pass instead of timing the machine in one
    short stretch of it, and what the caches hold when a large job runs
    does not depend on the seed.  A job that takes most of a pass is put in
    the middle, so the small jobs are timed in two stretches of the pass,
    before and after it, rather than in one.
    """
    jobs = _BUILDERS[name](seed, random.Random(f"{name}/{seed}"), workdir, small)
    random.Random(name).shuffle(jobs)
    dominant = [j for j in jobs if j.key == DOMINANT.get(name)]
    if dominant:
        jobs.remove(dominant[0])
        jobs.insert(len(jobs) // 2, dominant[0])
    return jobs
