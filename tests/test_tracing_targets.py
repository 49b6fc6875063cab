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


def test_traced_classify_counts_nodes_and_arcs():
    import numpy as np
    from test_graphcut import per_voxel_reduction

    from lgequant.graphcut import (MyocardiumVolume, classify, interaction_potential,
                                   interaction_sigma)
    from lgequant.rician import RicianMixtureParams

    rng = np.random.default_rng(8)
    mask = rng.random((4, 12, 12)) < 0.7
    intensity = rng.uniform(0.0, 1.0, size=mask.shape)
    volume = MyocardiumVolume(intensity, mask, (1.25, 1.25, 8.0))
    # Component modes about 0.02 apart: many links underflow to 0.
    params = RicianMixtureParams(alpha_r=0.12, sigma_r=0.10, a=-0.15,
                                 alpha_g=0.09, sigma_g=0.08, mu=0.27)
    sigma = interaction_sigma(params)
    n_pairs = n_links = 0
    for axis, dist in ((0, 8.0), (1, 1.25), (2, 1.25)):
        m, i = np.moveaxis(mask, axis, 0), np.moveaxis(intensity, axis, 0)
        both = m[:-1] & m[1:]
        caps = interaction_potential(i[:-1][both], i[1:][both], sigma, 1.25 / dist)
        n_pairs += caps.size
        n_links += np.count_nonzero(caps)
    assert 0 < n_links < n_pairs
    # The residual graph: free voxels, their nonzero folded t-links and the
    # live links between two free voxels.
    _, n_free, to, _ = per_voxel_reduction(volume, params)
    assert 0 < n_free < mask.sum()

    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.study = 0
    tracer.install()
    try:
        classify(volume, params)
    finally:
        tracer.uninstall()
    metrics = tracer.study_metrics(0)
    assert metrics["maxflow.solve.calls"] == 1
    assert metrics["maxflow.nodes"] == n_free
    assert metrics["maxflow.arcs"] == len(to) // 2


def test_traced_postprocessing_records_each_rule_once():
    from test_postprocess import make_params, random_case

    from lgequant import postprocess

    lab, vol, masks = random_case(0)
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        postprocess.run_postprocessing(lab, vol, masks, make_params())
    finally:
        tracer.uninstall()
    outer, *inner = [(name, parent) for name, _, _, parent, _ in tracer.spans]
    assert outer == ("postprocess.run_postprocessing", -1)
    assert inner == [(f"postprocess.{rule}", 0) for rule in (
        "remove_boundary_false_positives", "remove_small_components",
        "recover_partial_volume", "include_mvo")]
