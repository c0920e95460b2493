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


def test_import_loads_no_scipy_signal_or_stats():
    # scipy.signal (and the scipy.stats it pulls in) is imported only by the
    # one function that calls it, so importing the package and CLI stays light
    src = os.path.dirname(os.path.dirname(radarmag.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = ("import sys, radarmag, radarmag.cli; "
             "print(sorted(m for m in ('scipy.signal', 'scipy.stats') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
