"""Seeded job lists: the exact `drinfeldlab` argv a user would type.

Each workload draws its jobs from fixed strata (command, q, degree), so two
seeds give the same mix of work and differ only in which primes, modules and
sample seeds fill each stratum.  Inputs are chosen with `arith` alone and are
all valid: no job of a generated list is a usage error.
"""

from __future__ import annotations

import random

import arith

WORKLOADS = ("certify", "charpoly", "grouplab")


def _rng(workload, seed):
    return random.Random(f"perfbench/{workload}/{seed}")


def random_prime(rng, q, deg):
    """A uniformly drawn monic irreducible of degree deg over F_q."""
    while True:
        f = [rng.randrange(q) for _ in range(deg)] + [1]
        if arith.is_irreducible(f, q):
            return f


def random_poly(rng, q, max_deg):
    """A nonzero polynomial of degree <= max_deg."""
    while True:
        f = arith.trim([rng.randrange(q) for _ in range(max_deg + 1)])
        if f:
            return f


def random_poly_of_degree(rng, q, deg):
    return [rng.randrange(q) for _ in range(deg)] + [rng.randrange(1, q)]


def in_omega_tilde(f, q):
    """Whether some c in F_q makes c - T a non-square mod the prime f."""
    return any(not arith.is_square_mod([c, q - 1], f, q) for c in range(q))


def _text(f):
    return arith.to_text(f)


# -- certify --------------------------------------------------------------

_SMALL_KINDS = ("omega", "lambda", "thm1-verify", "thm2")
_SMALL_PER_STRATUM = 5          # per (kind, q, deg): 4 * 3 * 4 * 5 = 240 jobs
_OBSTRUCTION_PER_STRATUM = 2    # per (q, deg <= 2): 12 jobs
_NEWTON_STRATA = ((5, 1), (5, 2), (5, 3), (7, 2), (7, 3), (11, 2), (11, 3))
_CERTIFY_BATCH = (
    # phi_p over A at q = 5, deg p = 4 takes 0.5-1.2 s depending on the
    # module, a quarter of the workload: one fixed module keeps the
    # workload's time and peak RSS independent of the seed
    ["newton", "--q", "5", "--g1", "2*T^2+4*T+3", "--g2", "4*T^2+T+4",
     "--prime", "T^4+3*T^2+T+3"],
    ["lambda-scan", "--q", "5", "--max-deg", "4"],
    ["lambda-scan", "--q", "7", "--max-deg", "3"],
    ["lambda-scan", "--q", "5", "--exact-deg", "5", "--find-counterexample"],
    ["primes", "--q", "7", "--exact-deg", "4"],
    ["primes", "--q", "11", "--max-deg", "3"],
    # d2 = 4 keeps every X in brute mode; d2 = 8 overflows the brute W box,
    # so the command catches BruteCapExceeded and retries in formula mode
    ["density", "--q", "5", "--d1", "1", "--d2", "4", "--x", "3",
     "--mode", "brute"],
    ["density", "--q", "5", "--d1", "1", "--d2", "8", "--x", "2",
     "--mode", "brute"],
)


def _small_certify_job(rng, kind, q, deg):
    Q = str(q)
    prime = random_prime(rng, q, deg)
    g1 = random_poly(rng, q, 2)
    if kind == "omega":
        return ["omega", "--q", Q, "--prime", _text(prime)]
    if kind == "lambda":
        return ["lambda", "--q", Q, "--l", _text(prime), "--g1", _text(g1),
                "--c", str(rng.randrange(q))]
    if kind == "thm2":
        return ["thm2", "--q", Q, "--l", _text(prime), "--g1", _text(g1),
                "--c", str(rng.randrange(q))]
    c1, c2 = rng.sample(range(q), 2)
    return ["thm1-verify", "--q", Q, "--g1", _text(g1),
            "--g2", _text(random_poly(rng, q, 2)), "--prime", _text(prime),
            "--c1", str(c1), "--c2", str(c2)]


def _obstruction_job(rng, q, deg):
    prime = random_prime(rng, q, deg)
    g2 = random_poly(rng, q, 2)
    # degree-1 primes T - c of good reduction (g2(c) != 0), distinct from p
    good = [c for c in range(q)
            if arith.evaluate(g2, c, q) and prime != [(-c) % q, 1]]
    c1, c2 = rng.sample(good, 2)
    return ["obstruction", "--q", str(q), "--g1",
            _text(random_poly(rng, q, 2)), "--g2", _text(g2),
            "--prime", _text(prime), "--c1", str(c1), "--c2", str(c2)]


def _good_module(rng, q, prime):
    """(g1, g2) of degree exactly 2 with the prime not dividing g2.  The
    cost of `frob` and `newton` grows with deg g1 and deg g2; fixing both
    keeps the cost of a stratum independent of the seed."""
    while True:
        g2 = random_poly_of_degree(rng, q, 2)
        if arith.rem(g2, prime, q):
            return random_poly_of_degree(rng, q, 2), g2


def _certify(rng):
    jobs = []
    for kind in _SMALL_KINDS:
        for q in (5, 7, 11):
            for deg in (1, 2, 3, 4):
                for _ in range(_SMALL_PER_STRATUM):
                    jobs.append(_small_certify_job(rng, kind, q, deg))
    for q in (5, 7, 11):
        for deg in (1, 2):
            for _ in range(_OBSTRUCTION_PER_STRATUM):
                jobs.append(_obstruction_job(rng, q, deg))
    for q, deg in _NEWTON_STRATA:
        prime = random_prime(rng, q, deg)
        g1, g2 = _good_module(rng, q, prime)
        jobs.append(["newton", "--q", str(q), "--g1", _text(g1),
                     "--g2", _text(g2), "--prime", _text(prime)])
    for q in (5, 7):
        while True:
            prime = random_prime(rng, q, 2)
            if in_omega_tilde(prime, q):
                break
        jobs.append(["thm1-search", "--q", str(q), "--prime", _text(prime),
                     "--max-deg", "4", "--limit", "40"])
    jobs.extend(list(argv) for argv in _CERTIFY_BATCH)
    rng.shuffle(jobs)
    return jobs


# -- charpoly -------------------------------------------------------------

# (q, deg lambda, jobs).  The median job falls inside the 30 degree-4
# jobs, with 54 cheaper ones below them.  The 90th percentile falls inside
# the 12 jobs at q = 5, degree 7, with 9 costlier ones above them.  A
# percentile inside a block of like jobs does not move with the seed.
_CHARPOLY_STRATA = (
    [(q, d, 6) for d in (1, 2, 3) for q in (5, 7, 11)]
    + [(q, 4, 10) for q in (5, 7, 11)]
    + [(q, d, 3) for d in (5, 6) for q in (5, 7, 11)]
    + [(5, 7, 12)]
    + [(7, 7, 1), (11, 7, 1)] + [(q, 8, 1) for q in (5, 7, 11)]
    + [(5, d, 1) for d in (9, 10, 11, 12)]
)


def _charpoly(rng):
    jobs = []
    for q, deg, count in _CHARPOLY_STRATA:
        for _ in range(count):
            prime = random_prime(rng, q, deg)
            g1, g2 = _good_module(rng, q, prime)
            jobs.append(["frob", "--q", str(q), "--g1", _text(g1),
                         "--g2", _text(g2), "--prime", _text(prime)])
    rng.shuffle(jobs)
    return jobs


# -- grouplab -------------------------------------------------------------

# q -> (lemma-a1 jobs, sample counts they cycle through).  A job at q = 13
# costs about 25 at q = 5, and its time varies with the random subgroups.
_LEMMA_JOBS = {5: (62, range(5, 21)), 7: (12, range(5, 21)),
               11: (4, (5, 6)), 13: (2, (5, 6))}
# fixed (prime, samples, seed): the 300,000-element closures of these jobs
# set the workload's peak RSS, which would otherwise vary with the seed
_PR_LEVEL2_JOBS = (("T", 1, 1), ("T+2", 1, 3))
# det-gen (q, level, deg p, max-deg, jobs).  Its time hardly depends on the
# prime.  The 90th percentile falls inside the twelve (5, 2, 2, 2) jobs:
# between 4 and 8 costlier jobs lie above them.  The median falls inside
# the q = 5 lemma-a1 jobs.  A percentile inside a block of like jobs does
# not move with the seed.
_DET_GEN = ([(q, level, 1, 2, 1) for q in (5, 7) for level in (1, 2)]
            + [(q, 1, 2, 2, 1) for q in (5, 7)] + [(5, 2, 2, 2, 12)])


def _grouplab(rng):
    jobs = []
    for q, (count, samples) in _LEMMA_JOBS.items():
        # a fixed multiset of sample counts, so every seed closes as many
        # random subgroups per field
        for i in range(count):
            jobs.append(["lemma-a1", "--q", str(q),
                         "--prime", _text(random_prime(rng, q, 1)),
                         "--samples", str(samples[i % len(samples)]),
                         "--seed", str(rng.randrange(1 << 30))])
    for prime, samples, seed in _PR_LEVEL2_JOBS:
        jobs.append(["pr-level2", "--q", "5", "--prime", prime,
                     "--samples", str(samples), "--seed", str(seed)])
    for q, level, deg, max_deg, count in _DET_GEN:
        for _ in range(count):
            jobs.append(["det-gen", "--q", str(q),
                         "--prime", _text(random_prime(rng, q, deg)),
                         "--level", str(level), "--max-deg", str(max_deg)])
    rng.shuffle(jobs)
    return jobs


_BUILDERS = {"certify": _certify, "charpoly": _charpoly,
             "grouplab": _grouplab}


def generate(workload, seed):
    """The job list of one workload: a list of argv lists."""
    return _BUILDERS[workload](_rng(workload, seed))
