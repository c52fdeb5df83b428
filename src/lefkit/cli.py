"""Batch command-line surface with JSON input and output.

One path in ``main`` runs every subcommand: it parses the arguments,
loads ``--complex`` once when given, calls the handler ``cmd_x(args, cx)``,
which returns its report as a dict, and emits that report to stdout or
``--out``.  Every command is deterministic: identical invocations produce
byte-identical reports.  Exit codes: 0 success, 2 parse error,
3 precondition violation, 4 hypothesis failure, 5 falsification event
(an invariant the library asserts was violated by an exact computation).
Every failure writes a JSON error to stderr and nothing to stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache

from . import lefschetz as lf
from . import linalg, monomials, subdivision
from . import complexes
from .errors import FalsificationError, HypothesisError, LefkitError, ParseError
from .monomials import ArtinianFrame, parse_polynomial


def _parse_ints(text, what):
    """Comma-separated integers; anything else is a ParseError."""
    try:
        return [int(p) for p in text.split(",")]
    except ValueError as exc:
        raise ParseError(f"bad {what} {text!r}") from exc


def _parse_caps(text):
    parts = _parse_ints(text, "caps")
    return parts[0] if len(parts) == 1 else parts


def _parse_forms(text):
    """Semicolon-separated polynomials, or a JSON file of strings."""
    if text.endswith(".json"):
        try:
            with open(text, "r", encoding="utf-8") as fh:
                items = json.load(fh)
        except OSError as exc:
            raise ParseError(f"cannot read {text}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ParseError(f"{text}: {exc}") from exc
        if not isinstance(items, list) or not all(isinstance(s, str) for s in items):
            raise ParseError(f"{text} must hold a JSON array of polynomial strings")
        return [parse_polynomial(s) for s in items]
    return [parse_polynomial(piece) for piece in text.split(";") if piece.strip()]


def _emit(args, payload):
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _attach_matrix(args, payload, key, matrix):
    """Embed the matrix under key, and its rank mod the screening prime,
    as the options ask."""
    if args.embed_matrices:
        payload[key] = matrix.to_json_dict()
    if args.screen:
        payload["screen"] = {"modulus": args.screen,
                             "rank_mod_p": linalg.rank_mod_p(matrix, args.screen)}


def _wlp_payload(report, frame, args):
    per = []
    L = frame.linear_form()
    for p in report.per_degree:
        item = {
            "degree": p.k,
            "dim_from": p.dim_from,
            "dim_to": p.dim_to,
            "rank": p.rank,
            "full_rank": p.full_rank,
            "failure_mode": p.failure_mode,
        }
        if args.embed_matrices or args.screen:
            _attach_matrix(args, item, "matrix", monomials.multiplication_matrix(frame, L, p.k))
        per.append(item)
    return {"holds": report.holds, "socle_degree": report.socle_degree, "per_degree": per}


def cmd_info(args, cx):
    profile = complexes.fh_profile(cx)
    cm = complexes.is_cohen_macaulay(cx)
    pm = complexes.pseudomanifold_status(cx)
    hom = complexes.homology(cx)
    try:
        coloring = complexes.balanced_coloring(cx)
    except LefkitError:
        coloring = None
    return {
        "name": cx.name,
        "dim": cx.dim,
        "facets": [sorted(f) for f in cx.facets],
        "f_vector": list(profile.f),
        "h_vector": list(profile.h),
        "h_degree": profile.h_degree,
        "cohen_macaulay": {
            "holds": cm.holds,
            "witness": None
            if cm.holds
            else {"face": sorted(cm.witness_face), "index": cm.witness_index},
        },
        "pseudomanifold": {
            "pure": pm.pure,
            "strongly_connected": pm.strongly_connected,
            "max_ridge_degree": pm.max_ridge_degree,
            "boundary_facets": [sorted(f) for f in pm.boundary.facets] if pm.boundary else [],
            "orientable": pm.orientable,
        },
        "homology_ranks": list(hom.ranks),
        "homology_sphere": complexes.is_homology_sphere(cx),
        "balanced_coloring": None
        if coloring is None
        else {str(v): c for v, c in sorted(coloring.assignment.items())},
    }


def cmd_hf(args, cx):
    degrees = _parse_ints(args.degrees, "degrees") if args.degrees else None
    payload = {"name": cx.name, "caps": args.caps}
    extra = []
    if args.forms:
        forms = _parse_forms(args.forms)
        extra = list(forms)
        payload["forms"] = [str(f) for f in forms]
    elif not args.caps:
        raise ParseError("hf needs --caps, --forms, or both")
    if args.caps:
        frame = ArtinianFrame(cx, _parse_caps(args.caps))
        extra = frame.power_generators() + extra
    if degrees is None:
        if args.forms:
            lf._quotient(cx, tuple(extra))  # refuses bad forms before their bound is read
        top = lf._vanishing_bound(cx, extra) if args.forms else frame.socle_degree()
        degrees = list(range(top + 1))
    payload["degrees"] = degrees
    payload["values"] = [lf.quotient_hilbert(cx, extra, k) for k in degrees]
    return payload


def cmd_wlp(args, cx):
    frame = ArtinianFrame(cx, _parse_caps(args.caps))
    report = lf.wlp_check(frame)
    return {"name": cx.name, "caps": args.caps, "wlp": _wlp_payload(report, frame, args)}


def cmd_slp(args, cx):
    frame = ArtinianFrame(cx, _parse_caps(args.caps))
    report = lf.slp_check(frame)
    per = [
        {
            "power": j,
            "degree": i,
            "dim_from": a,
            "dim_to": b,
            "rank": r,
            "full_rank": full,
        }
        for (j, i, a, b, r, full) in report.per_pair
    ]
    return {
        "name": cx.name,
        "caps": args.caps,
        "slp": {"holds": report.holds, "socle_degree": report.socle_degree, "per_pair": per},
    }


def cmd_kernel(args, cx):
    frame = ArtinianFrame(cx, _parse_caps(args.caps))
    piece = lf.kernel_transpose_basis(frame, args.degree)
    payload = {
        "name": cx.name,
        "caps": args.caps,
        "degree": args.degree,
        "dimension": piece.dimension,
        "basis": [str(p) for p in piece.basis],
    }
    if args.embed_matrices or args.screen:
        mat = monomials.multiplication_matrix(frame, frame.linear_form(), args.degree - 1)
        _attach_matrix(args, payload, "matrix", mat)
    # every transpose-kernel element, rescaled by divided powers, obeys the
    # divergence degree bound
    cap = max(frame.cap_map.values())
    for p in piece.basis:
        try:
            ok = lf.contraction_bound_check(p, cap, n=len(cx.vertices))
        except HypothesisError as exc:
            raise FalsificationError(f"kernel element fails divergence hypotheses: {exc}")
        if not ok:
            raise FalsificationError("kernel element violates the divergence degree bound")
    return payload


def cmd_hesd(args, cx):
    return subdivision.hesd(cx, args.r).to_json_dict()


def cmd_incidence(args, cx):
    return subdivision.incidence_complex(cx, args.i).to_json_dict()


def cmd_spread(args, cx):
    if (cx is None) == (not args.ideal):
        raise ParseError("spread needs exactly one of --complex or --ideal")
    if cx is not None:
        ideal = monomials.facet_ideal(cx)
        source = {"complex": cx.name or args.complex, "ideal": "facet ideal"}
    else:
        forms = _parse_forms(args.ideal)
        ideal = monomials.IdealPresentation.make(tuple(forms))
        source = {"ideal": [str(g) for g in ideal.generators]}
    log = monomials.log_matrix(ideal)
    spread = monomials.analytic_spread(ideal)
    payload = {
        "source": source,
        "generators": [str(m) for m in log.row_labels],
        "analytic_spread": spread,
        "maximal": spread == len(ideal.generators),
    }
    _attach_matrix(args, payload, "log_matrix", log.matrix)
    return payload


def cmd_collapse(args, cx):
    cert = complexes.collapse_search(cx, args.target, args.budget)
    if cert is None:
        return {"name": cx.name, "target_dim": args.target, "found": False}
    complexes.replay_collapse(cx, cert)
    return {
        "name": cx.name,
        "target_dim": args.target,
        "found": True,
        "steps": [[sorted(free), sorted(coface)] for free, coface in cert.steps],
        "residual_facets": [sorted(f) for f in cert.residual.facets],
        "residual_dim": cert.residual.dim,
    }


def cmd_colored_sop(args, cx):
    coloring = complexes.balanced_coloring(cx)
    if coloring is None:
        raise HypothesisError("complex is not balanced: no proper (d+1)-coloring exists")
    cand = lf.colored_sop(cx, coloring)
    return {
        "name": cx.name,
        "coloring": {str(v): c for v, c in sorted(coloring.assignment.items())},
        "sop": [str(t) for t in cand.theta],
        "total_degree_t": cand.total_degree_t,
    }


def cmd_dual_gen(args, cx):
    coloring = complexes.balanced_coloring(cx)
    if coloring is None:
        raise HypothesisError("complex is not balanced")
    F = lf.colored_dual_generator(cx, coloring)
    return {"name": cx.name, "dual_generator": str(F)}


def cmd_sop_verify(args, cx):
    theta = _parse_forms(args.sop)
    f = parse_polynomial(args.f)
    cand = lf.SopCandidate.make(theta)
    report = lf.verify_unexpected(cx, cand, f, _parse_caps(args.caps), args.t)
    return {
        "name": cx.name,
        "sop": [str(t) for t in theta],
        "f": str(f),
        "caps": args.caps,
        "t": args.t,
        "conditions": {
            "U1": report.u1,
            "U2": report.u2,
            "U3": report.u3,
            "U4": report.u4,
            "U5": report.u5,
        },
        "witnesses": report.witnesses,
        "overall": report.overall,
    }


class _Parser(argparse.ArgumentParser):
    """Argument errors raise ``ParseError``; subparsers share the class."""

    def error(self, message):
        raise ParseError(f"{self.prog}: {message}")


def build_parser():
    parser = _Parser(
        prog="lefkit",
        description="Exact Lefschetz-property toolkit for Stanley-Reisner rings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, matrices=False, complex_required=True, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("--out", help="write the JSON report to this path")
        if matrices:
            p.add_argument("--embed-matrices", action="store_true")
            p.add_argument("--screen", type=int, default=None, metavar="P",
                           help="also report ranks mod the prime P (screening only)")
        p.add_argument("--complex", required=complex_required)
        return p

    add("info", cmd_info, help="f/h-vectors, CM, pseudomanifold, homology, balancedness")

    p = add("hf", cmd_hf, help="Hilbert function of the capped algebra or a quotient")
    p.add_argument("--caps", default=None)
    p.add_argument("--degrees", default=None, help="comma-separated degrees")
    p.add_argument("--forms", default=None, help="semicolon-separated forms or a .json file")

    p = add("wlp", cmd_wlp, matrices=True, help="weak Lefschetz report")
    p.add_argument("--caps", required=True)

    p = add("slp", cmd_slp, help="strong Lefschetz report")
    p.add_argument("--caps", required=True)

    p = add("kernel", cmd_kernel, matrices=True, help="transpose-kernel basis at a degree")
    p.add_argument("--caps", required=True)
    p.add_argument("--degree", type=int, required=True)

    p = add("hesd", cmd_hesd, help="half-hollow edgewise subdivision")
    p.add_argument("--r", type=int, required=True)

    p = add("incidence", cmd_incidence, help="incidence complex")
    p.add_argument("--i", type=int, required=True)

    p = add("spread", cmd_spread, matrices=True, complex_required=False,
            help="analytic spread of a monomial or facet ideal")
    p.add_argument("--ideal", default=None, help="semicolon-separated monomials or a .json file")

    p = add("collapse", cmd_collapse, help="search for a collapse certificate")
    p.add_argument("--target", type=int, default=0)
    p.add_argument("--budget", type=int, default=10**6)

    add("colored-sop", cmd_colored_sop, help="colored sop of a balanced complex")

    add("dual-gen", cmd_dual_gen, help="Macaulay dual generator of the colored-sop quotient")

    p = add("sop-verify", cmd_sop_verify, help="full (U1)-(U5) unexpectedness report")
    p.add_argument("--sop", required=True)
    p.add_argument("--f", required=True)
    p.add_argument("--caps", required=True)
    p.add_argument("--t", type=int, required=True)

    return parser


# parsing leaves a parser unchanged, so main builds one per process
_parser = lru_cache(maxsize=1)(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        cx = None if args.complex is None else complexes.load_complex(args.complex)
        _emit(args, args.fn(args, cx))
        return 0
    except SystemExit as exc:  # --help, after printing its text
        return exc.code or 0
    except LefkitError as exc:
        sys.stderr.write(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}, sort_keys=True)
            + "\n"
        )
        return exc.exit_code
    except OSError as exc:
        sys.stderr.write(
            json.dumps({"error": "IOError", "message": str(exc)}, sort_keys=True) + "\n"
        )
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
