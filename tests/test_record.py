"""``Record``, the base of modgrad's value types, and the import it saves."""

import os
import subprocess
import sys

import numpy as np
import pytest

from modgrad import Box, SimOptions, Status, Trajectory
from modgrad._record import Record
from modgrad.equilibria import FinderDiagnostics

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


class Pair(Record):
    _fields = ("a", "b")

    def __init__(self, a, b=0):
        self._fill(a, b)


class OtherPair(Pair):
    pass


def test_equality_by_type_and_fields():
    assert Pair(1, 2) == Pair(1, 2)
    assert Pair(1, 2) != Pair(1, 3)
    assert Pair(1, 2) != OtherPair(1, 2)
    assert Pair(1) != (1, 0)
    assert hash(Pair(1, (2, 3))) == hash(Pair(1, (2, 3)))
    assert Box((0, 0), (1, 2)) == Box([0.0, 0.0], [1.0, 2.0])
    assert SimOptions(h_max=2.0) == SimOptions(h_max=2.0) != SimOptions()


def test_repr_names_type_and_fields():
    assert repr(Pair(1, "x")) == "Pair(a=1, b='x')"
    assert repr(Box((0,), (1,))) == "Box(lo=(0.0,), hi=(1.0,))"


def test_immutable_record_refuses_assignment():
    box = Box((0, 0), (1, 1))
    with pytest.raises(AttributeError, match="'lo' of Box"):
        box.lo = (5, 5)
    with pytest.raises(AttributeError):
        del box.hi
    with pytest.raises(AttributeError):
        SimOptions().h_max = 1.0
    assert box.lo == (0.0, 0.0)
    # the finder's counts and a trajectory are built once, final
    diags = FinderDiagnostics(seeds=4)
    with pytest.raises(AttributeError, match="'converged' of FinderDiagnostics"):
        diags.converged += 2
    assert hash(diags) == hash(FinderDiagnostics(seeds=4))
    traj = Trajectory(t0=0.0, status=Status.REACHED_END, times=np.array([0.0]),
                      states=np.zeros((1, 2)), derivs=np.zeros((1, 2)))
    with pytest.raises(AttributeError, match="'detail' of Trajectory"):
        traj.detail = "note"


def test_replace_runs_init_checks():
    opts = SimOptions(h_max=2.0, max_steps=7)
    changed = opts.replace(rel_tol=1e-6)
    assert (changed.rel_tol, changed.h_max, changed.max_steps) == (1e-6, 2.0, 7)
    assert opts.rel_tol == 1e-9
    with pytest.raises(ValueError, match="h_max must be a finite number > 0"):
        SimOptions().replace(h_max=0)
    with pytest.raises(ValueError, match="lo < hi"):
        Box((0,), (1,)).replace(hi=(-1,))


def test_instances_keep_a_dict():
    box = Box((0, 0), (1, 1))
    assert box.__dict__ == {"lo": (0.0, 0.0), "hi": (1.0, 1.0)}
    assert type(box)(**box.__dict__) == box


def test_import_does_not_load_dataclasses():
    # dataclasses generate their methods with exec at import; records do not
    code = "import sys, modgrad, modgrad.cli; print('dataclasses' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
