"""Print the sha1 of ``simulate``'s data and truth for a fixed set of scenes.

One line per scene, ``name sha1``; each sha1 is taken over the record's
float64 samples followed by the truth traces, both in C order.  The scenes,
built by the test suite's tests/scenes.py: configs/validation_scene.cfg at
10 s and 30 s with seeds 0 and 1, the same scene with noise_sigma 0.05 at
3 s (seed 3) and 30 s (seed 1), and the 50 criterion-7 breathing and
cardiac records of the acceptance suite hashed together.  A change to the
renderer that must keep existing scenes bit-identical prints the same lines
before and after.  The sha1s may differ between CPUs, whose SIMD ``exp``
and ``cos`` may round differently.

    python tools/scene_digest.py
"""

from __future__ import annotations

import hashlib
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import radarmag as rm  # noqa: E402
from scenes import criterion_7_scenes, validation_scene  # noqa: E402

VALIDATION_CASES = [(duration_s, 0.0, seed) for duration_s in (10.0, 30.0) for seed in (0, 1)]
VALIDATION_CASES += [(3.0, 0.05, 3), (30.0, 0.05, 1)]


def update(digest, scene: rm.SceneSpec, seed: int) -> None:
    """Feed one simulated scene's data, then its truth, into digest."""
    r, truth = rm.simulate(scene, seed=seed)
    digest.update(r.data.tobytes())
    digest.update(truth.tobytes())


def main() -> int:
    for duration_s, noise_sigma, seed in VALIDATION_CASES:
        digest = hashlib.sha1()
        update(digest, validation_scene(duration_s=duration_s, noise_sigma=noise_sigma), seed)
        print(f"validation-{duration_s:g}s-noise{noise_sigma:g}-seed{seed}", digest.hexdigest())
    scenes = criterion_7_scenes()
    digest = hashlib.sha1()
    for scene, seed in scenes:
        update(digest, scene, seed)
    print(f"criterion-7-{len(scenes)}-records", digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
