import ast
import hashlib
import os
import subprocess
import sys
import types

import numpy as np

import radarmag
from scenes import CONFIGS, ROOT, criterion_7_scenes, validation_scene


def test_public_names_match_all():
    # every exported name resolves, and every public name is exported
    assert all(hasattr(radarmag, name) for name in radarmag.__all__)
    public = {name for name, value in vars(radarmag).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(public) == sorted(radarmag.__all__)


def test_shipped_feature_bank_is_default_bank():
    # configs/feature_bank.cfg, the file a user passes as --bank, describes
    # the bank that default_bank() builds
    assert (radarmag.load_bank_config(os.path.join(CONFIGS, "feature_bank.cfg")).levels
            == radarmag.default_bank().levels)


def count_code_lines(*args) -> dict[str, int]:
    """tools/code_lines.py's count per module, and its total, by name."""
    out = subprocess.run([sys.executable, os.path.join(ROOT, "tools", "code_lines.py"), *args],
                         capture_output=True, text=True, check=True).stdout
    return {name: int(count) for name, count in (line.split() for line in out.splitlines())}


def test_code_line_counter(tmp_path):
    # docstrings, comments and blank lines are not code; a string that is not
    # a docstring is, over every line it spans
    (tmp_path / "a.py").write_text(
        '"""Module\ndocstring."""\n\n# comment\nimport os  # trailing\n\n\n'
        'def f():\n    """Doc."""\n    return """two\nlines"""\n')
    (tmp_path / "b.py").write_text("x = 1\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert count_code_lines(str(tmp_path)) == {"a.py": 4, "b.py": 1, "total": 5}
    counts = count_code_lines()
    modules = sorted(name for name in os.listdir(os.path.dirname(radarmag.__file__))
                     if name.endswith(".py"))
    assert sorted(counts) == sorted(modules + ["total"])
    assert counts.pop("total") == sum(counts.values())


def test_scene_digest_tool():
    # tools/scene_digest.py hashes simulate's data, then its truth, per
    # validation-scene case, and the criterion-7 records the acceptance suite
    # runs into one sha1; no sha1 is pinned, as SIMD exp and cos may round
    # differently on another CPU
    out = subprocess.run([sys.executable, os.path.join(ROOT, "tools", "scene_digest.py")],
                         capture_output=True, text=True, check=True).stdout
    lines = [line.split() for line in out.splitlines()]
    cases = [(10, 0, 0), (10, 0, 1), (30, 0, 0), (30, 0, 1), (3, 0.05, 3), (30, 0.05, 1)]
    want = {}
    for duration_s, noise_sigma, seed in cases:
        r, truth = radarmag.simulate(validation_scene(duration_s=duration_s,
                                                      noise_sigma=noise_sigma), seed=seed)
        want[f"validation-{duration_s}s-noise{noise_sigma}-seed{seed}"] = hashlib.sha1(
            r.data.tobytes() + truth.tobytes()).hexdigest()
    assert dict(lines[:-1]) == want
    digest = hashlib.sha1()
    for scene, seed in criterion_7_scenes():
        r, truth = radarmag.simulate(scene, seed=seed)
        digest.update(r.data.tobytes() + truth.tobytes())
    assert lines[-1] == ["criterion-7-50-records", digest.hexdigest()]


def test_benchmark_vitals_pool_is_criterion_7_head(monkeypatch):
    # the benchmark's vitals-cv workload draws its records from criterion 7's
    # first 16, each simulated with its own seed
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    import bench
    scenes = criterion_7_scenes(16)
    targets = [scene.targets for scene, _ in scenes]
    assert bench.VitalsCV.pool_params(16) == [
        (breath.freq_hz, breath.amplitude_bins, cardiac.freq_hz, cardiac.amplitude_bins,
         breath.center_range_m) for breath, cardiac in targets]
    assert [bench.POOL_SEED + i for i in range(16)] == [seed for _, seed in scenes]


def run_probe(code: str) -> str:
    """stdout of code run in a fresh interpreter that imports this radarmag."""
    src = os.path.dirname(os.path.dirname(radarmag.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout


def test_commands_without_transforms_load_no_scipy(tmp_path):
    # scipy is imported inside the functions that use it, so importing the
    # package and CLI, and every command that runs no transform, loads none
    # of it; estimate_displacement, which forms its analytic signal with
    # scipy.fft, loads no scipy.signal (nor the scipy.stats it pulls in)
    scene = os.path.join(CONFIGS, "validation_scene.cfg")
    rows = [radarmag.FeatureRow(float(i), np.array([i % 5, i % 3], dtype=float), 60.0 + i)
            for i in range(12)]
    radarmag.write_features_csv(rows, ["a", "b"], str(tmp_path / "f.csv"))
    out = run_probe(
        "import contextlib, io, os, sys, numpy as np\n"
        "import radarmag as rm, radarmag.cli as cli\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "print('import', scipy_modules())\n"
        f"os.chdir({str(tmp_path)!r})\n"
        "for argv in (['--help'],\n"
        f"             ['simulate', {scene!r}, '-o', 'r.rgrm'],\n"
        "             ['render', 'r.rgrm', 'r.ppm'],\n"
        "             ['train', 'f.csv', '--model', 'rf', '-o', 'rf.bin', '--folds', '3',\n"
        "              '--trees', '5'],\n"
        "             ['eval', 'rf.bin', 'f.csv']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        try:\n"
        "            code = cli.main(argv)\n"
        "        except SystemExit as exc:\n"
        "            code = exc.code\n"
        "    print(argv[0], code, scipy_modules())\n"
        "r = rm.Radargram(np.random.default_rng(0).standard_normal((64, 50)), 20.0, 0.01)\n"
        "rm.estimate_displacement(r, rm.RangeROI(10, 30))\n"
        "print('estimate_displacement', "
        "sorted(m for m in ('scipy.signal', 'scipy.stats') if m in sys.modules))\n")
    assert out.splitlines() == ["import []", "--help 0 []", "simulate 0 []", "render 0 []",
                                "train 0 []", "eval 0 []", "estimate_displacement []"]


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
        "def check(level):\n"
        "    raise AssertionError('a finite level was checked')\n"
        "mag._rotate_windows(level.copy(), [0], 400, [0, 400], 200.0, cfg, check)\n"
        "pid = os.fork()\n"
        "if pid == 0:\n"
        "    signal.alarm(30)\n"
        "    mag._rotate_windows(level.copy(), [0], 400, [0, 400], 200.0, cfg, check)\n"
        "    os._exit(0)\n"
        "print(os.waitpid(pid, 0)[1])\n")
    assert out.strip() == "0"


def test_no_unused_imports_or_private_names():
    # a stdlib stand-in for a linter: every module uses each name it imports
    # (or marks the import # noqa: F401) and references each private
    # function, class or module-level assignment it defines
    package = os.path.dirname(radarmag.__file__)
    found = []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py") or name == "__init__.py":
            continue
        with open(os.path.join(package, name)) as fh:
            source = fh.read()
        lines, tree = source.splitlines(), ast.parse(source)
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
        loaded |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        for node in ast.walk(tree):
            defined = []
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
                if not any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
                    defined = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined = [node.name] if node.name.startswith("_") else []
            elif isinstance(node, (ast.Assign, ast.AnnAssign)) and node in tree.body:
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name) and t.id.startswith("_")]
            found += [f"{name}:{node.lineno}: {bound} is never used" for bound in defined
                      if bound not in loaded and not bound.startswith("__")]
    assert found == []
