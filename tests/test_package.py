import os
import subprocess
import sys
import types

import radarmag


def test_public_names_match_all():
    # every exported name resolves, and every public name is exported
    assert all(hasattr(radarmag, name) for name in radarmag.__all__)
    public = {name for name, value in vars(radarmag).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(public) == sorted(radarmag.__all__)


def run_probe(code: str) -> str:
    """stdout of code run in a fresh interpreter that imports this radarmag."""
    src = os.path.dirname(os.path.dirname(radarmag.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout


def test_import_loads_no_scipy_signal_or_stats():
    # scipy.signal (and the scipy.stats it pulls in) is imported only by the
    # one function that calls it, so importing the package and CLI stays light
    out = run_probe("import sys, radarmag, radarmag.cli; "
                    "print(sorted(m for m in ('scipy.signal', 'scipy.stats') if m in sys.modules))")
    assert out.strip() == "[]"


def test_single_block_levels_start_no_thread():
    # magnify's phase op runs a level of one row block inline, so small
    # records and featurize windows never start its thread pool
    out = run_probe(
        "import threading, numpy as np, radarmag as rm\n"
        "r = rm.Radargram(np.random.default_rng(0).standard_normal((64, 400)), 20.0, 0.01)\n"
        "band = rm.BandSpec(0.1, 0.7)\n"
        "rm.magnify(r, rm.default_bank(), rm.MagnifyConfig(alpha=10.0, band=band))\n"
        "for alpha in (0.0, 1.0):\n"
        "    rm.featurize(r, rm.default_bank(), rm.WindowSpec(10.0, 5.0), band,\n"
        "                 rm.RangeROI(20, 40), alpha=alpha)\n"
        "print(threading.active_count())\n")
    assert out.strip() == "1"


def test_forked_child_gets_its_own_pool():
    # the child of a fork holds none of the parent's pool threads, so a pool
    # the parent started would never run the child's blocks
    out = run_probe(
        "import os, signal, sys, numpy as np\n"
        "from radarmag import BandSpec, MagnifyConfig\n"
        "mag = sys.modules['radarmag.magnify']\n"
        "mag.BLOCK_ELEMENTS = 1\n"
        "level = np.exp(1j * np.arange(400.0)) * np.ones((4, 1))\n"
        "cfg = MagnifyConfig(alpha=1.0, band=BandSpec(40.0, 50.0))\n"
        "mag._rotate_level(level.copy(), 200.0, cfg)\n"
        "pid = os.fork()\n"
        "if pid == 0:\n"
        "    signal.alarm(30)\n"
        "    mag._rotate_level(level.copy(), 200.0, cfg)\n"
        "    os._exit(0)\n"
        "print(os.waitpid(pid, 0)[1])\n")
    assert out.strip() == "0"
