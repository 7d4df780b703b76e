"""Seeded fuzzing of the group-lab commands (lemma-a1, pr-level2, det-gen)
and of the certificate commands (omega, lambda, thm1-verify, thm2,
obstruction).

Each flag draws its value from a pool of valid values, the bound, the
bound + 1, negatives, 10^11, text and malformed polynomials.  Every argv
runs on both parse paths: as a plain call, read off cli.COMMANDS, and
spelled `--flag=value`, which that table parse declines and leaves to
argparse.  Each call must exit 0, 1 or 2 with no other exception leaving
main, print nothing on exit 2 and a record otherwise, agree across the
two paths and, given a record, print the same bytes when run again.
"""

import contextlib
import io
import random

from drinfeldlab import cli, criteria, frobenius, groups
from drinfeldlab.cli import main

BIG = 10 ** 11
# flag -> (valid values, the rest); a value is drawn from the first pool
# three times in four
POOLS = {
    "--q": ((5, 5, 7), (
        11, 13, groups.LEMMA_FIELD_CAP - 1, groups.LEMMA_FIELD_CAP,
        groups.LEMMA_FIELD_CAP + 3, 17, cli.Q_CAP, cli.Q_CAP + 1, 0, -5,
        BIG, "five", "5.0")),
    "--prime": (("T", "T+2", "T+4", "T^2+2", "T^2+T+1", "T^3+T+1"), (
        "T^2+T", "4*T+1", "3",
        # 5^17 <= DET_GEN_FIELD_CAP < 5^18, and the parse cap of 512
        "T^17+T+2", "T^18+T+2", "T^512+T+2", "T^513+1",
        "T^^2", "2*", "", "x+1", "T^-1", "T+", "-T", str(BIG))),
    # a valid count stays small: --samples at its cap runs for seconds
    "--samples": ((0, 1, 2, 5), (groups.SAMPLE_CAP + 1, -1, BIG, "many")),
    "--seed": ((0, 1, 7, 12345, -3, 2 ** 64), (BIG, "abc", "1e3")),
    "--level": ((1, 2), (0, 3, -1, BIG, "two")),
    # 5^10 <= 10^7 < 5^11: the enumeration bound at q = 5
    "--max-deg": ((0, 1, 2, 3), (10, 11, -1, BIG, "deg")),
    "--output": (("jsonl", "csv", "pretty"), ("xml",)),
}
COMMANDS = ("lemma-a1", "pr-level2", "det-gen")
CALLS = 500

# primes of degree PRIME_DEG_CAP = 64 over F_5 and F_7 (each reducible
# over the other field), and a degree-65 polynomial one above the cap
PRIME_CAP_5, PRIME_CAP_7 = "T^64+T+4", "T^64+2*T+3"
ABOVE_PRIME_CAP = "T^65+T+4"
# a polynomial may start with '-': `--g1 -T` and `--g1=-T` both read -T
POLYS = (("0", "1", "T", "T+4", "2*T^2+3", "T^2+4*T+3", "T^3+T+1",
          "4*T^4", "T^6+2*T^3+1", "-T", "-1"), (
    "T^512", "T^513", "T^^2", "2*", "", "x+1", "T+", "9*T", str(BIG)))
PRIMES = (("T", "T+2", "T+4", "T^2+2", "T^2+T+1", "T^3+T+1", PRIME_CAP_5,
           PRIME_CAP_7), (
    ABOVE_PRIME_CAP, "T^2+T", "4*T+1", "3", "0", "T^512+T+2", "T^513+1",
    "T^^2", "", "x+1", str(BIG), "-T+4", "-"))
ELEMENTS = ((0, 1, 2, 3, 4, 6), (5, 7, -1, BIG, "x", "1.5"))
CERTIFY_POOLS = {
    **POOLS,
    # 100,003 is a prime above FIELD_LIST_CAP, refused by omega and thm2
    "--q": ((5, 5, 7), (
        11, 13, cli.FIELD_LIST_CAP, 100_003, cli.Q_CAP, cli.Q_CAP + 1, 0,
        -5, BIG, "five", "5.0")),
    "--prime": PRIMES, "--l": PRIMES, "--g1": POLYS, "--g2": POLYS,
    "--c": ELEMENTS, "--c1": ELEMENTS, "--c2": ELEMENTS,
}
CERTIFY_COMMANDS = ("omega", "lambda", "thm1-verify", "thm2", "obstruction")


def _argvs(rng, commands, pools):
    """Seeded (command, [(flag, value), ...]) draws: every flag of the
    command, now and then one left out or --output added."""
    for _ in range(CALLS):
        command = rng.choice(commands)
        flags = []
        for flag, _opts in cli._options(cli.COMMANDS[command][1]):
            if flag == "--output" and rng.random() < 0.8:
                continue
            if flag != "--output" and rng.random() < 0.03:
                continue
            valid, rest = pools[flag]
            pool = valid if rng.random() < 0.75 else rest
            flags.append((flag, str(rng.choice(pool))))
        rng.shuffle(flags)
        yield command, flags


def _run(argv):
    """(exit code, stdout) of main(argv); an argparse exit is its code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def _fuzz(argvs):
    """Run every draw on both parse paths; the count of each exit code."""
    codes = {0: 0, 1: 0, 2: 0}
    for command, flags in argvs:
        plain = [command] + [tok for flag in flags for tok in flag]
        spelled = [command] + [f"{flag}={value}" for flag, value in flags]
        assert cli._table_args(spelled) is None
        first = _run(plain)
        code, out = first
        assert code in (0, 1, 2), plain
        # a usage error prints nothing; a verdict prints its record, and
        # prints it again, byte for byte
        assert (out == "") == (code == 2), plain
        assert _run(spelled) == first, plain
        if code != 2:
            assert _run(plain) == first, plain
        codes[code] += 1
    return codes


def test_group_lab_commands_fuzzed():
    assert frobenius.DET_GEN_FIELD_CAP < 5 ** 18
    codes = _fuzz(_argvs(random.Random(19), COMMANDS, POOLS))
    # the pools reach every exit code
    assert min(codes.values()) > 0, codes


def test_certify_commands_fuzzed():
    assert frobenius.PRIME_DEG_CAP == 64
    assert criteria.THM2_POWER_DEG_CAP >= 6 * 64
    codes = _fuzz(_argvs(random.Random(20), CERTIFY_COMMANDS,
                         CERTIFY_POOLS))
    assert min(codes.values()) > 0, codes
