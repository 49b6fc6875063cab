"""The benchmark tracer patches lgequant functions by name; they must exist and be called."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("lgequant_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves():
    tracing = _load_tracing()
    missing = [(owner, attr) for owner, attr, _ in tracing.TARGETS
               if not callable(getattr(tracing._owner(owner), attr, None))]
    assert missing == []


def test_install_and_uninstall_restore_every_target():
    tracing = _load_tracing()
    before = [getattr(tracing._owner(owner), attr) for owner, attr, _ in tracing.TARGETS]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        patched = [getattr(tracing._owner(owner), attr) for owner, attr, _ in tracing.TARGETS]
        assert all(p is not b for p, b in zip(patched, before))
    finally:
        tracer.uninstall()
    after = [getattr(tracing._owner(owner), attr) for owner, attr, _ in tracing.TARGETS]
    assert all(a is b for a, b in zip(after, before))


def test_traced_optimize_records_each_geometry_layer():
    from lgequant.phantom import default_wedge_config, generate
    from lgequant.realign import AlignmentProblem, optimize

    tracing = _load_tracing()
    ds, _ = generate(default_wedge_config(seed=5))
    problem = AlignmentProblem(ds.sa_slices, ds.la_slices, ds.sa_rois)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        optimize(problem, max_sweeps=1)
    finally:
        tracer.uninstall()
    names = {span[0] for span in tracer.spans}
    assert names >= {"geometry.plane_intersection", "geometry.sample_line_values",
                     "geometry.contiguous_regions"}
