"""Per-layer tracing from outside the package: spans around public calls.

A layer is one `drinfeldlab` module.  `Tracer.install` wraps each listed
function or class attribute and rebinds the wrapper under every name that
held the original, in every `drinfeldlab.*` module namespace and class, so
calls through `from .polys import powmod` are traced as well.  Spans stay
in memory; `layer_metrics` turns them into counts and self times.
"""

from __future__ import annotations

import functools
import gzip
import json
import os
import sys
import time

# layer -> public functions and class attributes wrapped in that module.
# FieldCtx primitives run once per coefficient and stay unwrapped; their
# time is self time of the caller.
LAYERS = {
    "cli": ("main",),
    "criteria": ("in_omega_tilde", "in_lambda_set", "lambda_scan",
                 "theorem1_verify", "theorem1_search", "theorem2_build",
                 "reducibility_obstruction"),
    "polys": ("enumerate_monic_irreducibles", "is_irreducible", "powmod",
              "gcd", "factor", "valuation", "Poly.__mul__",
              "Poly.__divmod__"),
    "residues": ("ResidueRing.__init__", "is_square_mod_prime",
                 "quadratic_is_irreducible", "norm_to_base",
                 "ResidueElement.__pow__", "ResidueElement.frobenius"),
    "skew": ("skew_mul", "linear_solve_left"),
    "drinfeld": ("phi_of", "newton_polygon", "reduction_height",
                 "reduce_module", "ReducedModule.of"),
    "frobenius": ("frob_deg1", "frob_general", "frob_identity_check",
                  "euler_poincare_oracle", "det_generation_check"),
    "groups": ("verify_lemma_A1", "pink_rutsche_level2", "closure",
               "acts_irreducibly", "contains_sl2"),
    "census": ("count_S", "count_W", "default_congruence_class"),
    "fields": ("make_field", "enumerate_elements", "is_square"),
}


def _case_orders(report):
    return sum(case["order"] for key in ("forced_cases", "sample_cases")
               for case in report.get(key, ()))


# what a span keeps of its call's result, for the yield and volume metrics
_RESULT_PROBES = {
    "polys.enumerate_monic_irreducibles": len,
    "criteria.theorem1_search": len,
    "drinfeld.phi_of": lambda f: sum(len(c.coeffs) for c in f.coeffs),
    "groups.verify_lemma_A1": _case_orders,
    "groups.pink_rutsche_level2": _case_orders,
}

# span record fields
NAME, START, END, PARENT, JOB, RAISED, PROBE = range(7)


class Tracer:
    """Wraps the LAYERS targets while installed and records one span per
    call: [name, start, end, parent index, job id, raised, probe]."""

    def __init__(self):
        self.names = []
        self.spans = []
        self.job = -1
        self._stack = []
        self._undo = []

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "drinfeldlab"
                                         or n.startswith("drinfeldlab."))]
        for layer, targets in LAYERS.items():
            home = sys.modules[f"drinfeldlab.{layer}"]
            for target in targets:
                owner = home
                attr = target
                if "." in target:
                    cls_name, attr = target.split(".")
                    owner = getattr(home, cls_name)
                original = vars(owner)[attr]
                name = f"{layer}.{target}"
                self.names.append(name)
                wrapper = self._wrap(len(self.names) - 1, original,
                                     _RESULT_PROBES.get(name))
                for holder, key in _bindings(original, modules):
                    self._undo.append((holder, key, original))
                    setattr(holder, key, wrapper)

    def uninstall(self):
        for holder, key, original in reversed(self._undo):
            setattr(holder, key, original)
        self._undo = []

    def _wrap(self, name_id, fn, probe):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name_id, clock(), 0.0, stack[-1] if stack else -1,
                   self.job, False, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[RAISED] = True
                raise
            finally:
                rec[END] = clock()
                stack.pop()
            if probe is not None:
                rec[PROBE] = probe(result)
            return result

        return traced


def _bindings(obj, modules):
    """Every (namespace, name) in the given modules and their classes whose
    value is obj."""
    seen = set()
    for mod in modules:
        holders = [mod] + [v for v in vars(mod).values()
                           if isinstance(v, type)
                           and v.__module__.startswith("drinfeldlab")]
        for holder in holders:
            if id(holder) in seen:
                continue
            seen.add(id(holder))
            for key, value in list(vars(holder).items()):
                if value is obj:
                    yield holder, key


def self_times(spans):
    """Each span's duration minus the union of its child spans' intervals."""
    children = [[] for _ in spans]
    for i, rec in enumerate(spans):
        if rec[PARENT] >= 0:
            children[rec[PARENT]].append(i)
    out = []
    for i, rec in enumerate(spans):
        start, end = rec[START], rec[END]
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted((max(spans[c][START], start),
                              min(spans[c][END], end))
                             for c in children[i]):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(end - start - covered)
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(names, spans):
    """Per-layer counts, self times, yields and error counts of one traced
    pass, keyed by metric name."""
    selfs = self_times(spans)
    layer_of = [n.split(".")[0] for n in names]
    target_of = [n.split(".", 1)[1] for n in names]
    m = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = 0
        m[f"{layer}.self_s"] = 0.0
        m[f"{layer}.errors"] = 0
    calls = {n: 0 for n in names}
    self_by = {n: 0.0 for n in names}
    incl_by = {n: 0.0 for n in names}
    probe_by = {n: 0 for n in names}
    rabin_under_enum = 0
    enums_testing = set()       # enumerations that ran a Rabin test
    verify_under_search = 0
    jobs_s = 0.0
    enum_id = names.index("polys.enumerate_monic_irreducibles")
    search_id = names.index("criteria.theorem1_search")
    for i, rec in enumerate(spans):
        name = names[rec[NAME]]
        layer = layer_of[rec[NAME]]
        calls[name] += 1
        self_by[name] += selfs[i]
        incl_by[name] += rec[END] - rec[START]
        if rec[PROBE] is not None:
            probe_by[name] += rec[PROBE]
        m[f"{layer}.calls"] += 1
        m[f"{layer}.self_s"] += selfs[i]
        parent = rec[PARENT]
        if parent < 0:
            jobs_s += rec[END] - rec[START]
        # an exception is counted once per layer it leaves
        if rec[RAISED] and (parent < 0
                            or layer_of[spans[parent][NAME]] != layer):
            m[f"{layer}.errors"] += 1
        if target_of[rec[NAME]] == "is_irreducible" and parent >= 0 \
                and spans[parent][NAME] == enum_id:
            rabin_under_enum += 1
            enums_testing.add(parent)
        if target_of[rec[NAME]] == "theorem1_verify" and parent >= 0 \
                and _has_ancestor(spans, parent, search_id):
            verify_under_search += 1
    # degree-1 enumerations return primes without a Rabin test
    enum_primes_tested = sum(spans[i][PROBE] or 0 for i in enums_testing)

    m["criteria.thm1_yield"] = _ratio(probe_by["criteria.theorem1_search"],
                                      verify_under_search)
    m["polys.enum_calls"] = calls["polys.enumerate_monic_irreducibles"]
    m["polys.rabin_tests"] = calls["polys.is_irreducible"]
    m["polys.prime_yield"] = _ratio(enum_primes_tested, rabin_under_enum)
    m["polys.powmod_calls"] = calls["polys.powmod"]
    m["polys.mul_calls"] = calls["polys.Poly.__mul__"]
    m["polys.mul_self_s"] = self_by["polys.Poly.__mul__"]
    m["residues.rings_built"] = calls["residues.ResidueRing.__init__"]
    m["residues.euler_tests"] = calls["residues.is_square_mod_prime"]
    m["residues.twists"] = calls["residues.ResidueElement.frobenius"]
    m["residues.pow_calls"] = calls["residues.ResidueElement.__pow__"]
    m["skew.mul_calls"] = calls["skew.skew_mul"]
    m["skew.solve_self_s"] = self_by["skew.linear_solve_left"]
    m["drinfeld.phi_of_terms"] = probe_by["drinfeld.phi_of"]
    m["drinfeld.reduced_of_calls"] = calls["drinfeld.ReducedModule.of"]
    m["frobenius.frob_general_calls"] = calls["frobenius.frob_general"]
    m["frobenius.identity_check_s"] = incl_by["frobenius.frob_identity_check"]
    elements = (probe_by["groups.verify_lemma_A1"]
                + probe_by["groups.pink_rutsche_level2"])
    m["groups.closure_elements"] = elements
    m["groups.elements_per_s"] = _ratio(
        elements, incl_by["groups.verify_lemma_A1"]
        + incl_by["groups.pink_rutsche_level2"])
    m["trace.jobs_s"] = jobs_s
    m["trace.self_share"] = _ratio(
        sum(m[f"{layer}.self_s"] for layer in LAYERS), jobs_s)
    return m


def _has_ancestor(spans, idx, name_id):
    while idx >= 0:
        if spans[idx][NAME] == name_id:
            return True
        idx = spans[idx][PARENT]
    return False


def write_spans(path, names, spans):
    """Write a traced pass: a JSON list of span names, then one line per
    span: name index, start, end, parent index, job id, raised (0/1)."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with gzip.open(path, "wt", compresslevel=1) as fh:
        fh.write(json.dumps(names) + "\n")
        for rec in spans:
            fh.write(f"{rec[NAME]} {rec[START]!r} {rec[END]!r} {rec[PARENT]} "
                     f"{rec[JOB]} {int(rec[RAISED])}\n")
