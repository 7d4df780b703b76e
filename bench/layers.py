"""Timings of drinfeldlab as the min and median of k runs, one JSON file
per source tree: `import drinfeldlab.cli` and each README command as
subprocesses, and in-process layer cases (building a `kernel.FrobeniusMap`,
one `kernel.vfrobenius`, one `kernel.vhorner`, building a
`kernel.HornerMap`, one `residues.norm_to_base`,
`FieldCtx.is_square` over a whole field, one `frobenius.frob_general`, one
`frobenius.euler_poincare_oracle`, one `drinfeld.reduction_height` (also
at a supersingular prime), the prime sieve `polys.irreducible_indices`,
the texts of its primes by `polys.index_texts`, one
`criteria.lambda_scan`, one `drinfeld.carlitz_det_module` and the
`polys.parse_poly` calls of one `frob` job) at fixed sizes.

    python3 bench/layers.py --runs 15 --out BENCH_<n>.json
    python3 bench/layers.py --src ../parent/src --out parent.json \
        --src src --out BENCH_<n>.json

Every run is a fresh interpreter with PYTHONPATH set to one --src (this
checkout's src by default) and the rest of the environment inherited, so
PYTHONDONTWRITEBYTECODE, recorded in the file, decides whether the package's
bytecode is cached between runs.  Each of the k rounds runs every case on
every tree in turn, the trees in the order given in even rounds and
reversed in odd ones, so a burst of load lands on both sides of a
comparison.  A layer case times the calls in its own child and reports
seconds per call, over as many calls as take LAYER_FLOOR_S.  A README
command that exits non-zero is an error.  Each case also records the
sha256 of its stdout (a layer case prints its result as JSON), which must
repeat on every run, so two files can show that two trees print and
compute the same bytes.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import platform
import random
import shlex
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
IMPORT_CASE = "import drinfeldlab.cli"
LAYER_FLOOR_S = 0.02
# (op, p, m, deg f) of each layer case: the maps at q = 5 and 127 at
# degrees 16 and 64, and at F_25 at degree 16; the norm at q = 5 and 127
# at degrees 16 and 64; the square test over F_25 and F_3^5, every element;
# the charpoly at q = 5, degree 1 (a frob job's fixed cost), 4 (the charpoly
# workload's median job, with the oracle) and 7, and at q = 127, degree 64
# (PRIME_DEG_CAP); the oracle at q = 5, degree 1 and 4, and at F_25,
# degree 2, the last two at its bound q^deg <= 625; the height (behind
# newton) at the charpoly's sizes, module and prime, and at q = 5 at a
# degree-63 prime with g_1 = 0 and g_2 = T + 3, supersingular as every
# odd-degree prime is when g_1 = 0 (height 2); the Horner map's
# build at q = 5, degrees 4 and 12, the charpoly workload's range; the
# sieve at the certify workload's sizes (q, n) = (5, 5) and (7, 4) and one
# step past them, (5, 6); the scan of `lambda-scan --q 5 --exact-deg 5
# --find-counterexample`, the certify workload's largest enumeration job;
# the texts of the primes of the sieve at (7, 4), `primes --q 7
# --exact-deg 4`; the module of `thm2` at q = 11, deg l = 4 and at the
# corner q = 257, deg l = 16 of THM2_POWER_DEG_CAP; the parse of the
# three texts of the seed-1 charpoly workload's first q = 7 job, PARSE_TEXTS
LAYERS = {f"{op} q={p ** m} deg={d}": (op, p, m, d)
          for p, m, d in ((5, 1, 16), (5, 1, 64), (127, 1, 16),
                          (127, 1, 64), (5, 2, 16))
          for op in ("FrobeniusMap", "vfrobenius", "vhorner")}
LAYERS.update({f"norm_to_base q={p} deg={d}": ("norm_to_base", p, 1, d)
               for p in (5, 127) for d in (16, 64)})
LAYERS.update({f"is_square q={p ** m}": ("is_square", p, m, None)
               for p, m in ((5, 2), (3, 5))})
LAYERS.update({f"{op} q={p ** m} deg={d}": (op, p, m, d)
               for op, p, m, d in (("frob_general", 5, 1, 1),
                                   ("frob_general", 5, 1, 4),
                                   ("frob_general", 5, 1, 7),
                                   ("frob_general", 127, 1, 64),
                                   ("reduction_height", 5, 1, 4),
                                   ("reduction_height", 5, 1, 7),
                                   ("reduction_height", 127, 1, 64),
                                   ("euler_poincare_oracle", 5, 1, 1),
                                   ("euler_poincare_oracle", 5, 1, 4),
                                   ("euler_poincare_oracle", 5, 2, 2))})
LAYERS["reduction_height q=5 deg=63 g1=0"] = (
    "supersingular_height", 5, 1, 63)
LAYERS.update({f"HornerMap q=5 deg={d}": ("HornerMap", 5, 1, d)
               for d in (4, 12)})
LAYERS.update({f"sieve q={p} deg={d}": ("sieve", p, 1, d)
               for p, d in ((5, 5), (7, 4), (5, 6))})
LAYERS["lambda_scan q=5 deg=5"] = ("lambda_scan", 5, 1, 5)
LAYERS.update({f"{op} q={p} deg={d}": (op, p, 1, d)
               for op, p, d in (("index_texts", 7, 4),
                                ("carlitz_det_module", 11, 4),
                                ("carlitz_det_module", 257, 16))})
LAYERS["parse_poly q=7"] = ("parse_poly", 7, 1, None)
PARSE_TEXTS = ("2*T^2", "5*T^2+2*T+1", "T^4+6*T^3+5*T^2+3*T+2")


def readme_commands(readme=ROOT / "README.md"):
    """The `drinfeldlab ...` lines of the README's sh blocks."""
    lines, in_sh = [], False
    for line in readme.read_text().splitlines():
        if line.startswith("```"):
            in_sh = line == "```sh"
        elif in_sh and line.startswith("drinfeldlab "):
            lines.append(line)
    return lines


def cases():
    """{case name: (argv, whether the child times itself)}: the import,
    each README command, then each layer case."""
    out = {IMPORT_CASE: ([sys.executable, "-c", IMPORT_CASE], False)}
    for line in readme_commands():
        out[line] = ([sys.executable, "-m", "drinfeldlab.cli",
                      *shlex.split(line)[1:]], False)
    bench = str(Path(__file__).resolve().parent)
    for name in LAYERS:
        out[name] = ([sys.executable, "-c",
                      f"import sys; sys.path.insert(0, {bench!r}); "
                      f"import layers; layers.layer_child({name!r})"], True)
    return out


def _per_call(fn):
    """(seconds per call, the last call's value) of fn over 1, 2, 4, ...
    calls, the first count that takes LAYER_FLOOR_S."""
    reps = 1
    while True:
        start = time.perf_counter()
        for _ in range(reps):
            value = fn()
        seconds = time.perf_counter() - start
        if seconds >= LAYER_FLOOR_S:
            return seconds / reps, value
        reps *= 2


def _map_call(ctx, rng, op, d):
    """(call, its value as printed) of a FrobeniusMap, vfrobenius, vhorner
    or HornerMap case on a random monic modulus of degree d: a built
    Frobenius map is printed as its twist of x, a built Horner map as its
    packed rows, the others as they are."""
    from drinfeldlab import kernel

    q = ctx.q
    mod = [rng.randrange(q) for _ in range(d)] + [1]
    x = [rng.randrange(q) for _ in range(d - 1)] + [rng.randrange(1, q)]
    if op == "FrobeniusMap":
        return (functools.partial(kernel.FrobeniusMap, ctx, mod),
                lambda frob: kernel.vfrobenius(frob, x))
    if op == "vfrobenius":
        return functools.partial(kernel.vfrobenius,
                                 kernel.FrobeniusMap(ctx, mod), x), list
    # phi_T = T + g tau + D tau^2, g of degree 2 and D of degree 1, and a
    # of degree d: the Horner of frob_general's phi_b
    phi_t = [[0, 1], [rng.randrange(q) for _ in range(2)] + [1],
             [rng.randrange(q), rng.randrange(1, q)]]
    frob = kernel.FrobeniusMap(ctx, mod)
    if op == "HornerMap":
        return (functools.partial(kernel.HornerMap, frob, phi_t),
                lambda step: step.rows)
    step = kernel.HornerMap(frob, phi_t)
    return functools.partial(kernel.vhorner, step, x + [1]), list


def _norm_call(ctx, rng, d):
    """norm_to_base of a random element of A/p, p the first prime of
    degree d in a seeded polys.is_irreducible search."""
    from drinfeldlab import polys, residues

    q = ctx.q
    while True:
        f = polys.Poly(ctx, [rng.randrange(q) for _ in range(d)] + [1])
        if polys.is_irreducible(f):
            break
    ring = residues.ResidueRing(polys.PrimeIdeal(f))
    x = ring.element(polys.Poly(ctx, [rng.randrange(q) for _ in range(d)]))
    return lambda: residues.norm_to_base(x).val


def _charpoly_call(ctx, rng, op, d):
    """(call, its value as printed) of frob_general, printed as the
    coefficients of (a, b), of euler_poincare_oracle, printed as its
    coefficients, or of reduction_height, at a good prime of degree d
    parsed as the frob command parses it, phi_T = T + g tau + D tau^2 with
    g of degree 2 and D of degree 1, seeded; a supersingular_height case
    takes phi_T = T + (T + 3) tau^2 instead."""
    from drinfeldlab import drinfeld, frobenius, polys

    q = ctx.q
    while True:
        f = polys.Poly(ctx, [rng.randrange(q) for _ in range(d)] + [1])
        if polys.is_irreducible(f):
            break
    lam = polys.PrimeIdeal(f)
    if op == "supersingular_height":
        phi = drinfeld.DrinfeldModule(ctx, [polys.Poly.zero(ctx),
                                            polys.Poly(ctx, (3, 1))])
        return functools.partial(drinfeld.reduction_height, phi, lam), int
    while True:
        g = polys.Poly(ctx, [rng.randrange(q) for _ in range(2)] + [1])
        delta = polys.Poly(ctx, [rng.randrange(q), rng.randrange(1, q)])
        if not (delta % f).is_zero():
            break
    phi = drinfeld.DrinfeldModule(ctx, [g, delta])
    if op == "frob_general":
        return (functools.partial(frobenius.frob_general, phi, lam),
                lambda cp: [list(cp.a.coeffs), list(cp.b.coeffs)])
    if op == "reduction_height":
        return functools.partial(drinfeld.reduction_height, phi, lam), int
    return (functools.partial(frobenius.euler_poincare_oracle, phi, lam),
            lambda oracle: list(oracle.coeffs))


def _enumeration_call(ctx, op, d):
    """(call, its value as printed) of the sieve at degree d, printed as its
    indices, of the texts of its primes, printed as they are (formed from
    each prime's digits on a tree without `polys.index_texts`), or of the
    degree-d lambda_scan in find_counterexample mode, printed as its
    records and summary."""
    from drinfeldlab import criteria, kernel, polys

    if op == "sieve":
        return (lambda: list(polys.irreducible_indices(ctx, d))), list
    if op == "index_texts":
        q, indices = ctx.q, list(polys.irreducible_indices(ctx, d))
        texts = getattr(polys, "index_texts", lambda ctx, d, indices: (
            (idx, polys.coeffs_to_text(ctx, kernel.vdigits(q ** d + idx, q)))
            for idx in indices))
        return (lambda: [text for _, text in texts(ctx, d, indices)]), list
    return (functools.partial(criteria.lambda_scan, ctx, d,
                              "find_counterexample"),
            lambda report: [report.records, report.as_dict()])


def _det_module_call(ctx, rng, d):
    """(call, its value as printed) of carlitz_det_module with g_1 = 1 and
    a seeded monic g_2 of degree d, as `thm2` builds it from l = g_2,
    printed as the coefficients of -g_2^(q-1)."""
    from drinfeldlab import drinfeld, polys

    g2 = polys.Poly(ctx, [rng.randrange(ctx.q) for _ in range(d)] + [1])
    return (functools.partial(drinfeld.carlitz_det_module, ctx,
                              polys.Poly.one(ctx), g2),
            lambda phi: list(phi.g2.coeffs))


def layer_child(name):
    """Print the seconds per call of one layer case on its first line and
    its result as JSON after it.  Inputs are seeded by the case's field
    and degree."""
    from drinfeldlab.fields import make_field

    op, p, m, d = LAYERS[name]
    ctx = make_field(p, m)
    rng = random.Random(1000 * ctx.q + (d or 0))
    if op == "is_square":
        call, show = (lambda: list(map(ctx.is_square, range(ctx.q)))), list
    elif op == "parse_poly":
        from drinfeldlab.polys import parse_poly

        call, show = (lambda: [parse_poly(ctx, text).coeffs
                               for text in PARSE_TEXTS]), list
    elif op in ("sieve", "index_texts", "lambda_scan"):
        call, show = _enumeration_call(ctx, op, d)
    elif op == "carlitz_det_module":
        call, show = _det_module_call(ctx, rng, d)
    elif op == "norm_to_base":
        call, show = _norm_call(ctx, rng, d), int
    elif op in ("frob_general", "euler_poincare_oracle", "reduction_height",
                "supersingular_height"):
        call, show = _charpoly_call(ctx, rng, op, d)
    else:
        call, show = _map_call(ctx, rng, op, d)
    seconds, out = _per_call(call)
    print(seconds)
    print(json.dumps(show(out)))


def _run(argv, env, timed_inside):
    """(seconds, stdout sha256) of one run; a child that times itself
    prints its seconds on the first line, outside the digest."""
    start = time.perf_counter()
    proc = subprocess.run(argv, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE)
    seconds = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{argv} exited with {proc.returncode}: "
                           f"{proc.stderr.decode()[-500:]}")
    out = proc.stdout
    if timed_inside:
        first, out = out.split(b"\n", 1)
        seconds = float(first)
    return seconds, hashlib.sha256(out).hexdigest()


def _revision(src):
    """HEAD of the git checkout holding src, '+dirty' if src has changes;
    None outside git."""
    def git(*args):
        return subprocess.run(["git", "-C", str(src), *args],
                              capture_output=True, text=True)
    head = git("rev-parse", "HEAD")
    if head.returncode != 0:
        return None
    dirty = git("status", "--porcelain", "--", ".").stdout.strip()
    return head.stdout.strip() + ("+dirty" if dirty else "")


def measure(srcs, runs):
    """One report per tree in srcs: environment and, per case, unit, min,
    median, k and the stdout digest.  Round r runs each case on the trees
    in order, reversed when r is odd."""
    envs = [dict(os.environ, PYTHONPATH=str(src)) for src in srcs]
    todo = cases()
    times = [{name: [] for name in todo} for _ in srcs]
    digests = [{name: set() for name in todo} for _ in srcs]
    for r in range(runs):
        order = range(len(srcs))
        for name, (argv, timed_inside) in todo.items():
            for i in (reversed(order) if r % 2 else order):
                seconds, digest = _run(argv, envs[i], timed_inside)
                times[i][name].append(seconds)
                digests[i][name].add(digest)
    reports = []
    for src, tree_times, tree_digests in zip(srcs, times, digests):
        for name, seen in tree_digests.items():
            if len(seen) != 1:
                raise RuntimeError(f"{name}: stdout differs between runs")
        reports.append({
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "git_revision": _revision(src),
            "PYTHONDONTWRITEBYTECODE":
                os.environ.get("PYTHONDONTWRITEBYTECODE"),
            "cases": {name: {"unit": "s", "min": min(ts),
                             "median": statistics.median(ts), "k": len(ts),
                             "stdout_sha256": tree_digests[name].pop()}
                      for name, ts in tree_times.items()},
        })
    return reports


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=15, help="k, runs per case")
    ap.add_argument("--out", action="append", required=True,
                    help="the report of the --src in the same place")
    ap.add_argument("--src", action="append",
                    help=f"a source tree (default {ROOT / 'src'})")
    args = ap.parse_args(argv)
    srcs = args.src or [str(ROOT / "src")]
    if args.runs < 1:
        ap.error("--runs must be at least 1")
    if len(args.out) != len(srcs):
        ap.error("give one --out per --src")
    reports = measure([Path(src).resolve() for src in srcs], args.runs)
    for out, report in zip(args.out, reports):
        with open(out, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    print("min / median ms, by --out: " + ", ".join(args.out))
    for name in reports[0]["cases"]:
        print("  ".join(f"{r['cases'][name]['min'] * 1e3:9.4g} "
                        f"{r['cases'][name]['median'] * 1e3:9.4g}"
                        for r in reports) + f"  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
