"""The benchmark tracer's hold on the library: every function it spans
exists under its name, and installing then uninstalling it leaves every
module attribute as it was.  A rename or deletion under `src/` that would
break a traced benchmark run fails here instead."""

import importlib
import sys
from fractions import Fraction
from pathlib import Path

import ldpclab.cli  # noqa: F401  (imports every ldpclab module)
from ldpclab import rowdist
from ldpclab.gf import Field, field_new

ROOT = str(Path(__file__).resolve().parents[1])
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)
from perfbench import tracer  # noqa: E402


def snapshot():
    """Every attribute of every ldpclab module, and of `Field`."""
    owners = [mod for name, mod in sorted(sys.modules.items())
              if mod is not None and (name == "ldpclab" or name.startswith("ldpclab."))]
    return {(owner.__name__, attr): val
            for owner in [*owners, Field] for attr, val in vars(owner).items()}


def test_every_spanned_name_resolves():
    for modname, names in tracer.SPANNED.items():
        mod = importlib.import_module("ldpclab." + modname)
        for name in names:
            assert callable(getattr(mod, name, None)), f"ldpclab.{modname}.{name}"


def test_install_then_uninstall_restores_every_attribute():
    before = snapshot()
    tr = tracer.Tracer()
    try:
        tr.install()
        assert rowdist.rstar is not before["ldpclab.rowdist", "rstar"]
        assert Field.mul is not before["Field", "mul"]
    finally:
        tr.uninstall()
    after = snapshot()
    assert after.keys() == before.keys()
    assert [key for key, val in before.items() if after[key] is not val] == []


def test_rstar_row_reduces_twice_per_call():
    # one rref of the support, one of the winner's kernel in implied_distribution
    fld = field_new(3)
    taus = [rowdist.RowDistribution.from_dict(fld, ell, d) for ell, d in (
        (2, {(0, 1): Fraction(1, 2), (1, 2): Fraction(1, 4), (2, 2): Fraction(1, 4)}),
        (3, {(1, 0, 0): Fraction(1, 3), (0, 1, 0): Fraction(2, 3)}),
        (1, {(2,): Fraction(1)}))]
    tr = tracer.Tracer()
    try:
        tr.install()
        for tau in taus:
            rowdist.rstar(tau)
    finally:
        tr.uninstall()
    calls = tr.self_times({"setup"})[0]
    assert calls["rowdist.rstar"] == len(taus)
    assert calls["linalg.rref"] == 2 * len(taus)
