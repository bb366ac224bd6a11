"""Process-level behaviour, each case in a fresh interpreter: what
``import posimp`` pulls in, and the ``python -m`` entry points."""

import os
import subprocess
import sys

import posimp

SRC = os.path.dirname(os.path.dirname(os.path.abspath(posimp.__file__)))

SMALL_CERTIFICATE = """
from posimp import certify, core
plant = core.LftPositiveSystem.build(A=[[-1.0, 0.5], [0.2, -2.0]], Ec=[[1.0], [0.5]],
                                     Cc=[[1.0, 1.0]], J=[[0.5, 0.0], [0.1, 0.5]])
assert isinstance(certify.certify_min(plant, core.Minimum(1.0)), certify.Certificate)
"""

LINPROG = """
from scipy.optimize import linprog
assert linprog([1.0], bounds=[(1.0, 2.0)], method="highs").x[0] == 1.0
"""


def _python(*args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)


def _ok(run):
    assert run.returncode == 0, run.stderr
    return run


def test_solving_does_not_import_scipy_optimize_sparse_or_linalg():
    # scipy.optimize alone costs about 0.65 s and 49 MB per process, and
    # scipy.sparse 0.28 s and 22 MB; posimp loads only the HiGHS extension
    _ok(_python("-c", SMALL_CERTIFICATE + """
import sys
heavy = [m for m in ("scipy.optimize", "scipy.sparse", "scipy.linalg") if m in sys.modules]
assert not heavy, heavy
""" + LINPROG + """
import scipy.optimize._highspy._core as shared
from posimp import lp
assert lp._highs_core() is shared
""" + SMALL_CERTIFICATE))


def test_scipy_optimize_first_shares_its_highs_module():
    _ok(_python("-c", LINPROG + SMALL_CERTIFICATE + """
import sys
from posimp import lp
assert lp._highs_core() is sys.modules["scipy.optimize._highspy._core"]
"""))


def test_thread_pool_sized_by_scipy_is_joined():
    # HiGHS keeps one thread pool per process; posimp asks for one thread
    # and must still solve when scipy started the pool with two
    _ok(_python("-W", "ignore", "-c", LINPROG.replace(
        'method="highs"', 'method="highs", options={"threads": 2}') + SMALL_CERTIFICATE))


def test_python_dash_m_entry_points():
    assert "usage: posimp" in _ok(_python("-m", "posimp", "--help")).stdout
    # cli must not be imported by the package itself, or runpy warns
    assert "usage: posimp" in _ok(_python("-W", "error::RuntimeWarning", "-m", "posimp.cli",
                                          "--help")).stdout
