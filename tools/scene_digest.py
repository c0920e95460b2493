"""Print the sha1 of ``simulate``'s data and truth for a fixed set of scenes.

One line per scene, ``name sha1``; each sha1 is taken over the record's
float64 samples followed by the truth traces, both in C order.  The scenes:
configs/validation_scene.cfg at 10 s and 30 s with seeds 0 and 1, the same
scene with noise_sigma 0.05 at 3 s (seed 3) and 30 s (seed 1), and the 50
criterion-7 breathing and cardiac records hashed together.  A change to the
renderer that must keep existing scenes bit-identical prints the same lines
before and after.  The sha1s may differ between CPUs, whose SIMD ``exp``
and ``cos`` may round differently.

    python tools/scene_digest.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import radarmag as rm  # noqa: E402

VALIDATION_SCENE = os.path.join(ROOT, "configs", "validation_scene.cfg")
# the criterion-7 generator: master seed, records, and each record's geometry
CRITERION_7_SEED = 2024
CRITERION_7_RECORDS = 50


def update(digest, scene: rm.SceneSpec, seed: int) -> None:
    """Feed one simulated scene's data, then its truth, into digest."""
    r, truth = rm.simulate(scene, seed=seed)
    digest.update(r.data.tobytes())
    digest.update(truth.tobytes())


def validation_scenes() -> list[tuple[str, rm.SceneSpec, int]]:
    """(name, scene, seed) of each validation-scene case."""
    base = rm.load_scene_config(VALIDATION_SCENE)
    cases = [(duration_s, 0.0, seed) for duration_s in (10.0, 30.0) for seed in (0, 1)]
    cases += [(3.0, 0.05, 3), (30.0, 0.05, 1)]
    return [(f"validation-{duration_s:g}s-noise{noise_sigma:g}-seed{seed}",
             dataclasses.replace(base, duration_s=duration_s, noise_sigma=noise_sigma), seed)
            for duration_s, noise_sigma, seed in cases]


def criterion_7_scenes() -> list[tuple[rm.SceneSpec, int]]:
    """(scene, seed) of each criterion-7 record, in record order."""
    rng = np.random.default_rng(CRITERION_7_SEED)
    out = []
    for rec in range(CRITERION_7_RECORDS):
        f_breath = rng.uniform(0.2, 0.35)
        a_breath = rng.uniform(0.3, 1.0)
        f_cardiac = rng.uniform(1.0, 1.6)
        a_cardiac = rng.uniform(0.01, 0.05)
        center = 0.48 + rng.uniform(-0.04, 0.04)
        scene = rm.SceneSpec(
            duration_s=60.0, fps=20.0, n_bins=96, bin_spacing=0.01,
            targets=(rm.TargetSpec("sinusoid", center, 1.0, amplitude_bins=a_breath,
                                   freq_hz=f_breath),
                     rm.TargetSpec("sinusoid", center, 0.6, amplitude_bins=a_cardiac,
                                   freq_hz=f_cardiac)),
            noise_sigma=0.02, pulse_sigma_bins=3.0, pulse_carrier_bins=6.0)
        out.append((scene, CRITERION_7_SEED + rec))
    return out


def main() -> int:
    for name, scene, seed in validation_scenes():
        digest = hashlib.sha1()
        update(digest, scene, seed)
        print(name, digest.hexdigest())
    digest = hashlib.sha1()
    for scene, seed in criterion_7_scenes():
        update(digest, scene, seed)
    print(f"criterion-7-{CRITERION_7_RECORDS}-records", digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
