"""Seeded fuzzing of the group-lab commands: lemma-a1, pr-level2, det-gen.

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

from drinfeldlab import cli, frobenius, groups
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


def _argvs(rng):
    """Seeded (command, [(flag, value), ...]) draws: every flag of the
    command, now and then one left out or --output added."""
    for _ in range(CALLS):
        command = rng.choice(COMMANDS)
        flags = []
        for flag, _opts in cli._options(cli.COMMANDS[command][1]):
            if flag == "--output" and rng.random() < 0.8:
                continue
            if flag != "--output" and rng.random() < 0.03:
                continue
            valid, rest = POOLS[flag]
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


def test_group_lab_commands_fuzzed():
    assert frobenius.DET_GEN_FIELD_CAP < 5 ** 18
    rng = random.Random(19)
    codes = {0: 0, 1: 0, 2: 0}
    for command, flags in _argvs(rng):
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
    # the pools reach every exit code
    assert min(codes.values()) > 0, codes
