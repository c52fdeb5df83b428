"""Per-layer tracing from outside the program.

``Tracer.install`` wraps every public function of the six layer modules
at every module attribute that binds it (``lefschetz`` imports
``face_monomials`` by name, the package re-exports most functions), and
``uninstall`` puts the originals back.  In ``cli`` only ``main`` is
wrapped, so its self time is argument parsing plus report building and
emission.  Each call records a span (name, start, end, parent span, job
id) in memory; self time is a span's duration minus the durations of the
wrapped calls made inside it.  Counters that ROADMAP items aim at are
taken from arguments and results after the span closes, and the time they
take is charged to no layer.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
from time import perf_counter

LAYERS = ("complexes", "subdivision", "linalg", "monomials", "lefschetz", "cli")

# wrapped functions whose calls and self time are reported by name
REPORTED = (
    "linalg.rank", "linalg.kernel_basis", "linalg.rank_mod_p",
    "monomials.face_monomials", "monomials.multiplication_matrix",
    "lefschetz.quotient_hilbert", "lefschetz.is_sop", "lefschetz.inverse_system_piece",
    "lefschetz.ideal_membership", "lefschetz.verify_unexpected", "lefschetz.wlp_check",
    "lefschetz.slp_check", "lefschetz.kernel_transpose_basis",
    "complexes.homology", "complexes.is_cohen_macaulay", "complexes.is_homology_sphere",
    "complexes.link", "complexes.collapse_search", "complexes.balanced_coloring",
    "complexes.pseudomanifold_status",
    "subdivision.hesd", "subdivision.incidence_complex", "subdivision.facet_ridge_graph",
    "subdivision.is_bipartite",
    "cli.main",
)
_REPEATS = ("monomials.face_monomials", "lefschetz.quotient_hilbert")
CACHED = ("complexes.homology", "complexes.is_cohen_macaulay", "complexes.is_homology_sphere")
_CALLS_ONLY = ("monomials.standard_basis", "monomials.hilbert_function")
_COUNTERS = (
    ("linalg.rank.cells", "count"), ("linalg.rank.nnz", "count"),
    ("linalg.rank.max_side", "count"),
    ("linalg.kernel_basis.cells", "count"), ("linalg.kernel_basis.kernel_dim", "count"),
    ("monomials.face_monomials.out", "count"),
    ("monomials.multiplication_matrix.nnz", "count"),
    ("lefschetz.wlp_check.decided_ranks", "count"),
    ("cli.main.bytes_out", "B"),
)


def per_layer_metrics():
    """(name, unit, better) of every metric a traced run reports."""
    out = []
    for name in REPORTED:
        out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.self_s", "s", "lower"))
    out += [(f"{name}.calls", "count", "lower") for name in _CALLS_ONLY]
    out += [(name, unit, "lower") for name, unit in _COUNTERS]
    out += [("lefschetz.wlp_check.decided_frac", "ratio", "lower")]
    out += [(f"{name}.repeat_frac", "ratio", "lower") for name in _REPEATS]
    out += [(f"{name}.hit_frac", "ratio", "higher") for name in CACHED]
    out += [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    out += [("trace.wall_s", "s", "lower"), ("trace.overhead_s", "s", "lower")]
    return out


def _layer_functions():
    """{qualified name: original} for the public functions of each layer."""
    found = {}
    for layer in LAYERS:
        module = sys.modules[f"lefkit.{layer}"]
        for attr, obj in vars(module).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if not (inspect.isfunction(obj) or hasattr(obj, "cache_info")):
                continue
            if layer == "cli" and attr != "main":
                continue
            found[f"{layer}.{attr}"] = obj
    return found


class Tracer:
    """Wraps the layer functions of an imported lefkit and records spans."""

    def __init__(self):
        self.spans = []
        self.job = None
        self.stats = {}
        self.counters = {name: 0 for name, _ in _COUNTERS}
        self._stack = []
        self._covered = []
        self._seen = {name: set() for name in _REPEATS}
        self._repeats = dict.fromkeys(_REPEATS, 0)
        self._wlp_ranks = 0
        self._originals = _layer_functions()
        self._patches = []
        self._cache_start = {}
        self._cache_delta = {}

    # --- wrapping ------------------------------------------------------------

    def install(self):
        wrappers = {id(fn): (fn, self._wrap(name, fn)) for name, fn in self._originals.items()}
        for modname, module in list(sys.modules.items()):
            if modname != "lefkit" and not modname.startswith("lefkit."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])
                    self._patches.append((module, attr, obj))
        for name in CACHED:
            fn = self._originals.get(name)
            if fn is not None:
                self._cache_start[name] = fn.cache_info()

    def uninstall(self):
        for name in CACHED:
            fn = self._originals.get(name)
            if fn is not None and name in self._cache_start:
                info, start = fn.cache_info(), self._cache_start[name]
                self._cache_delta[name] = (info.hits - start.hits, info.misses - start.misses)
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches = []

    def _wrap(self, name, fn):
        spans, stack, covered = self.spans, self._stack, self._covered
        stat = self.stats.setdefault(name, [0, 0.0])
        hook = getattr(self, "_hook_" + name.replace(".", "_"), None)
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            covered.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                inner = covered.pop()
                spans[idx] = (name, t0, t1, parent, tracer.job)
                stat[0] += 1
                stat[1] += (t1 - t0) - inner
                if covered:
                    covered[-1] += t1 - t0
            if hook is not None:
                hook(args, kwargs, result)
                if covered:
                    covered[-1] += perf_counter() - t1
            return result

        wrapper.__wrapped__ = fn
        wrapper.traced_name = name
        return wrapper

    def bindings_restored(self):
        """True when no lefkit module attribute still holds a wrapper."""
        for modname, module in list(sys.modules.items()):
            if modname == "lefkit" or modname.startswith("lefkit."):
                if any(hasattr(obj, "traced_name") for obj in vars(module).values()):
                    return False
        return not self._patches

    # --- counters ------------------------------------------------------------

    def _repeat(self, name, key):
        seen = self._seen[name]
        if key in seen:
            self._repeats[name] += 1
        else:
            seen.add(key)

    def _hook_linalg_rank(self, args, kwargs, result):
        m = args[0]
        c = self.counters
        c["linalg.rank.cells"] += m.rows * m.cols
        c["linalg.rank.nnz"] += m.nnz()
        c["linalg.rank.max_side"] = max(c["linalg.rank.max_side"], m.rows, m.cols)

    def _hook_linalg_kernel_basis(self, args, kwargs, result):
        m = args[0]
        self.counters["linalg.kernel_basis.cells"] += m.rows * m.cols
        self.counters["linalg.kernel_basis.kernel_dim"] += result.dimension

    def _hook_monomials_face_monomials(self, args, kwargs, result):
        self.counters["monomials.face_monomials.out"] += len(result)
        caps = args[2] if len(args) > 2 else kwargs.get("caps")
        caps_key = tuple(sorted(caps.items())) if caps else None
        self._repeat("monomials.face_monomials", (args[0], args[1], caps_key))

    def _hook_monomials_multiplication_matrix(self, args, kwargs, result):
        self.counters["monomials.multiplication_matrix.nnz"] += result.nnz()

    def _hook_lefschetz_quotient_hilbert(self, args, kwargs, result):
        self._repeat("lefschetz.quotient_hilbert", (args[0], tuple(args[1]), args[2]))

    def _hook_lefschetz_wlp_check(self, args, kwargs, result):
        onto = next((p.k for p in result.per_degree if p.rank == p.dim_to), None)
        if onto is not None:
            self.counters["lefschetz.wlp_check.decided_ranks"] += sum(
                1 for p in result.per_degree if p.k > onto)
        self._wlp_ranks += len(result.per_degree)

    def _hook_cli_main(self, args, kwargs, result):
        argv = args[0] if args else kwargs.get("argv") or []
        if "--out" in argv:
            path = argv[argv.index("--out") + 1]
            if os.path.exists(path):
                self.counters["cli.main.bytes_out"] += os.path.getsize(path)

    # --- results -------------------------------------------------------------

    def metrics(self, wall_s):
        """Per-layer metrics of one traced pass (call after uninstall)."""
        out = {}
        for name in REPORTED + _CALLS_ONLY:
            calls, self_s = self.stats.get(name, (0, 0.0))
            out[f"{name}.calls"] = calls
            if name in REPORTED:
                out[f"{name}.self_s"] = self_s
        c = dict(self.counters)
        c["lefschetz.wlp_check.decided_frac"] = (
            c["lefschetz.wlp_check.decided_ranks"] / self._wlp_ranks if self._wlp_ranks else 0.0)
        for name in _REPEATS:
            calls = self.stats.get(name, (0, 0.0))[0]
            c[f"{name}.repeat_frac"] = self._repeats[name] / calls if calls else 0.0
        out.update(c)
        for name in CACHED:
            hits, misses = self._cache_delta.get(name, (0, 0))
            out[f"{name}.hit_frac"] = hits / (hits + misses) if hits + misses else 0.0
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                s[1] for n, s in self.stats.items() if n.startswith(layer + "."))
        out["trace.wall_s"] = wall_s
        return out

    def self_times(self):
        """{function: self seconds} over every wrapped function that ran."""
        return {name: s[1] for name, s in self.stats.items() if s[0]}

    def write_spans(self, path, origin):
        """Spans as JSON lines: name, start and end (seconds from origin),
        parent span index (-1 at a job's top level) and job index."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, t0, t1, parent, job in self.spans:
                fh.write(json.dumps([name, round(t0 - origin, 7), round(t1 - origin, 7),
                                     parent, job]) + "\n")
