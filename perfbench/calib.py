"""Host-speed calibration: fixed stdlib work timed between jobs.

The CPU speed this benchmark gets drifts by +-20% over seconds to minutes,
and differently for arithmetic, parsing and hashing code.  `slowness()`
times one small kernel of each kind, none of them from `drinfeldlab`, and
returns their mean time relative to a fixed reference.  Reported times are
divided by the slowness measured around them: they read as seconds at the
reference speed, which is close to this benchmark's 2-vCPU development host.
"""

from __future__ import annotations

import argparse
import time

import arith

_MODULUS = [3, 1, 4, 1, 5, 9, 2, 6, 1]


def _arithmetic():
    """Dense F_101[T] arithmetic, like `polys` and `skew`."""
    arith.powmod([2, 7, 1, 8], 10 ** 4 + 7, _MODULUS, 101)


def _parsing():
    """argparse parser construction and parsing, like `cli`."""
    top = argparse.ArgumentParser(prog="calibrate")
    sub = top.add_subparsers(dest="command")
    for i in range(3):
        cmd = sub.add_parser(f"cmd{i}")
        for j in range(3):
            cmd.add_argument(f"--opt{j}", type=int)
    top.parse_args(["cmd2", "--opt1", "4"])


def _hashing():
    """Breadth-first closure in a set of tuples, like `groups`."""
    seen = {(0, 0)}
    frontier = [(0, 0)]
    while frontier:
        nxt = []
        for a, b in frontier:
            for y in ((7 * a + b) % 31, (a + 3 * b + 1) % 29):
                t = (b, y)
                if t not in seen:
                    seen.add(t)
                    nxt.append(t)
        frontier = nxt


# seconds each kernel takes at the reference speed
_KERNELS = ((_arithmetic, 0.0005), (_parsing, 0.0009), (_hashing, 0.0007))


def slowness():
    """Mean time of the kernels now, relative to the reference speed."""
    total = 0.0
    for kernel, reference in _KERNELS:
        start = time.perf_counter()
        kernel()
        total += (time.perf_counter() - start) / reference
    return total / len(_KERNELS)
