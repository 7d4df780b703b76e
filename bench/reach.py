"""Function-body lines of drinfeldlab that no command reaches, per module.

    python3 bench/reach.py [--src SRC]

Runs the seed-1 and seed-2 job lists of every perfbench workload and the
README commands through `cli.main` under `sys.setprofile`, set before
`drinfeldlab` is imported.  A function is reached when its code is called;
a body line (after the docstring, blank lines left out) is unreached when
the innermost function holding it never is.  Prints
{"total": n, "modules": {module: n}} as JSON, naming every module.
"""

import argparse
import ast
import contextlib
import io
import json
import shlex
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 2)


def body_lines(path):
    """{first line of each def, decorators included: its body lines}, a
    nested def's lines counted under it alone."""
    text = path.read_text()
    source = text.splitlines()
    spans, bodies = {}, {}
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.FunctionDef):
            first = min([node.lineno,
                         *(d.lineno for d in node.decorator_list)])
            spans[first] = set(range(first, node.end_lineno + 1))
            body = node.body
            if ast.get_docstring(node, clean=False) is not None:
                body = body[1:]
            start = body[0].lineno if body else node.end_lineno + 1
            bodies[first] = {i for i in range(start, node.end_lineno + 1)
                             if source[i - 1].strip()}
    for lines in bodies.values():
        for inner in spans.keys() & lines:
            lines -= spans[inner]
    return bodies


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--src", default=str(ROOT / "src"),
                    help="the source tree to trace (default %(default)s)")
    package = Path(ap.parse_args(argv).src).resolve() / "drinfeldlab"
    sys.path[:0] = [str(package.parent), str(ROOT / "perfbench"),
                    str(ROOT / "bench")]
    import jobs
    import layers

    todo = ([argv for workload in jobs.WORKLOADS for seed in SEEDS
             for argv in jobs.generate(workload, seed)]
            + [shlex.split(line)[1:] for line in layers.readme_commands()])
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    sys.setprofile(profile)
    try:
        from drinfeldlab import cli

        for args in todo:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()), \
                    contextlib.suppress(SystemExit):
                cli.main(args)
    finally:
        sys.setprofile(None)
    counts = {path.stem: sum(len(lines) for first, lines
                             in body_lines(path).items()
                             if (str(path), first) not in called)
              for path in package.glob("*.py")}
    modules = dict(sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])))
    print(json.dumps({"total": sum(modules.values()), "modules": modules},
                     indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
