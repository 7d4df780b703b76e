"""The package runs a library module only when a name from it is used, and
each command runs only the modules it computes with.

A module registered by `drinfeldlab/__init__.py` but not yet run is a
LazyLoader module, whose type is a subclass of ModuleType; running it turns
its type back into ModuleType.  `type(mod) is types.ModuleType` reads that
without running the module, which `hasattr` or `vars` would do.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import drinfeldlab

LIBRARY = {"census", "criteria", "drinfeld", "fields", "frobenius", "groups",
           "kernel", "polys", "residues", "skew"}

_PROBE = """
import contextlib, io, sys, types
import drinfeldlab.cli
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert drinfeldlab.cli.main(sys.argv[1:]) == 0
names = [n[len("drinfeldlab."):] for n in sys.modules
         if n.startswith("drinfeldlab.")]
print(" ".join(sorted(names)))
print(" ".join(sorted(n for n in names
                      if type(sys.modules["drinfeldlab." + n])
                      is types.ModuleType)))
print("fractions" in sys.modules)
"""


def _probe(*argv):
    """(registered submodules, executed submodules, fractions loaded) in a
    fresh process after `import drinfeldlab.cli` and `main(argv)`."""
    src = str(Path(drinfeldlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _PROBE, *argv],
                          capture_output=True, text=True, env=env,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    registered, executed, fractions = proc.stdout.splitlines()
    return set(registered.split()), set(executed.split()), fractions == "True"


def test_import_registers_every_module_and_runs_three():
    registered, executed, fractions = _probe()
    assert registered == LIBRARY | {"cli", "errors"}
    assert executed == {"cli", "errors", "fields", "polys"}
    assert not fractions


@pytest.mark.parametrize("argv, unrun", [
    (("omega", "--q", "5", "--prime", "T+4"),
     {"groups", "skew", "census", "drinfeld", "frobenius", "residues"}),
    (("lemma-a1", "--q", "5", "--prime", "T", "--samples", "5", "--seed",
      "1"), {"criteria", "census", "skew", "frobenius"}),
    (("frob", "--q", "5", "--g1", "1", "--g2", "4", "--prime", "T^2+2"),
     {"groups", "census", "criteria"}),
], ids=("omega", "lemma-a1", "frob"))
def test_command_runs_only_its_modules(argv, unrun):
    registered, executed, fractions = _probe(*argv)
    assert registered >= LIBRARY
    assert not executed & unrun
    # Fraction serves newton's slopes and density's ratios alone
    assert not fractions


def test_public_names_resolve_to_their_home_modules():
    for name in drinfeldlab.__all__:
        value = getattr(drinfeldlab, name)
        home = sys.modules[value.__module__]
        assert home.__name__ in {f"drinfeldlab.{m}" for m in LIBRARY}, name
        assert getattr(home, name) is value, name
    assert len(set(drinfeldlab.__all__)) == len(drinfeldlab.__all__) == 68


# helpers that no command calls, now test oracles in tests/oracles.py, by
# the module that used to hold them
MOVED_TO_ORACLES = {
    "census": ("density_closed_form", "valid_congruence_classes"),
    "drinfeld": ("ReductionData", "carlitz_twist_witness", "reduction_type"),
    "frobenius": ("det_level_check",),
    "polys": ("irreducible_count",),
    "skew": ("as_linearized", "ht_deg"),
}


def test_moved_oracles_leave_the_package():
    import importlib

    import oracles

    for module, names in MOVED_TO_ORACLES.items():
        home = importlib.import_module(f"drinfeldlab.{module}")
        for name in names:
            assert name not in drinfeldlab.__all__, name
            assert not hasattr(drinfeldlab, name), name
            assert not hasattr(home, name), name
            assert callable(getattr(oracles, name)), name
    assert not hasattr(drinfeldlab.drinfeld.ReducedModule, "act")
    assert callable(oracles.act)


def test_star_import_and_dir_list_every_public_name():
    namespace = {}
    exec("from drinfeldlab import *", namespace)
    assert set(drinfeldlab.__all__) <= set(namespace)
    assert set(drinfeldlab.__all__) <= set(dir(drinfeldlab))
    assert LIBRARY <= set(dir(drinfeldlab))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        drinfeldlab.no_such_name
    assert not hasattr(drinfeldlab, "check_samples")
