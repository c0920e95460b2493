"""Self-test of the benchmark at tiny (smoke) sizes.

    python3 perfbench/selftest.py

Checks that every named metric appears with its unit, that the tracing
wrappers are live at every import site while installed (featurize records
decompose calls) and gone afterwards, and that traced and untraced runs
produce bit-identical outputs.  Exits 1 and lists what failed otherwise.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402,F401  (caps library threads as a benchmark run does, before numpy loads)
import numpy as np  # noqa: E402

import bench  # noqa: E402
from tracer import Tracer  # noqa: E402


def snapshot() -> dict:
    """Every binding radarmag holds: module globals, dicts in them, class attributes."""
    seen = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "radarmag" or name.startswith("radarmag.")):
            continue
        for key, value in vars(mod).items():
            if key.startswith("__"):
                continue
            seen[(name, key)] = value
            if isinstance(value, dict):
                seen.update({(name, key, k): v for k, v in value.items()})
            if isinstance(value, type) and value.__module__ == name:
                seen.update({(name, key, "attr", k): v for k, v in vars(value).items()})
    return seen


def main() -> int:
    failures = []

    def check(ok, message):
        if not ok:
            failures.append(message)

    rm = bench.load_program()
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as fh:
        contract = json.load(fh)
    before = snapshot()

    tracer = Tracer()
    tracer.install(bench.TRACE_TARGETS)
    patched = {id(o) for _, _, o in tracer.sites}
    targets = {name for _, _, name, _ in bench.TRACE_TARGETS}
    check(len(patched) == len(targets), f"{len(patched)} functions patched for {len(targets)} targets")
    leftover = [k for k, v in snapshot().items() if id(v) in patched]
    check(not leftover, f"original functions still bound while tracing: {leftover}")
    for path in (("radarmag.features", "decompose"), ("radarmag.magnify", "decompose"),
                 ("radarmag.cli", "featurize"), ("radarmag", "magnify")):
        check(getattr(getattr(sys.modules[path[0]], path[1]), "perfbench_traced", False),
              f"{'.'.join(path)} is not wrapped")
    check(getattr(sys.modules["radarmag.cli"]._COMMANDS["magnify"], "perfbench_traced", False),
          "the CLI dispatch table is not wrapped")
    scene = rm.SceneSpec(duration_s=30.0, fps=20.0, n_bins=96, bin_spacing=0.01,
                         targets=(rm.TargetSpec("sinusoid", 0.48, 1.0, amplitude_bins=0.5,
                                                freq_hz=0.25),))
    record, _ = rm.simulate(scene)
    rm.featurize(record, rm.default_bank(), rm.WindowSpec(30.0, 5.0), rm.BandSpec(0.1, 0.7),
                 rm.RangeROI(34, 62))
    tracer.remove()
    seg = tracer.take()
    check(seg.calls["gabor.decompose"] > 0, "featurize recorded no gabor.decompose calls")
    check(seg.calls["features.level_signals"] > 0, "featurize recorded no level_signals calls")
    after = snapshot()
    check(after.keys() == before.keys() and all(after[k] is before[k] for k in before),
          "bindings differ from the originals after the wrappers were removed")

    contract_e2e = {m["name"]: m["unit"] for m in contract["end_to_end"]}
    contract_layer = {m["name"]: m["unit"] for m in contract["per_layer"]}
    for workload in bench.WORKLOADS:
        plain = bench.run_workload(rm, workload, seed=5, seconds=0.0, trace=False, preset="smoke")
        traced = bench.run_workload(rm, workload, seed=5, seconds=0.0, trace=True, preset="smoke")
        for label, res in (("untraced", plain), ("traced", traced)):
            check(res["correct"], f"{workload} {label}: {res['detail']['problems']}")
            check(res["attempted"] >= 1 and res["failed"] == 0,
                  f"{workload} {label}: {res['failed']} of {res['attempted']} failed")
        machine = plain["detail"]["machine"]
        check(all(machine.get(k) for k in ("nproc", "cpu_model", "caches", "python", "numpy",
                                            "scipy", "thread_caps")),
              f"{workload}: incomplete machine record {machine}")
        e2e = plain["detail"]["end_to_end"]
        for name in bench.E2E_BY_WORKLOAD[workload]:
            check(name in e2e and e2e[name]["unit"] == bench.E2E_UNITS[name],
                  f"{workload}: end-to-end {name} missing or without its unit")
        for name, unit in contract_e2e.items():
            check(e2e.get(name, {}).get("unit") == unit, f"{workload}: {name} [{unit}] missing")
        layers = traced["detail"]["per_layer"]
        for name, unit in list(bench.LAYER_UNITS.items()) + list(contract_layer.items()):
            check(layers.get(name, {}).get("unit") == unit,
                  f"{workload}: per-layer {name} [{unit}] missing")
        check(layers["gabor.decompose.calls"]["value"] > 0, f"{workload}: no decompose calls traced")
        zero = [name for name in contract_layer if layers.get(name, {}).get("value") == 0]
        check(not zero, f"{workload}: BENCHMARK.json per-layer metrics read 0: {zero}")
        same = plain["samples"].keys() == traced["samples"].keys() and all(
            np.array_equal(plain["samples"][k], traced["samples"][k]) for k in plain["samples"])
        check(same, f"{workload}: traced and untraced outputs differ")
        after = snapshot()
        check(all(after.get(k) is v for k, v in before.items()),
              f"{workload}: wrappers left in place after the traced run")

    for message in failures:
        print("FAIL:", message)
    print("selftest:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
