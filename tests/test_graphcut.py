import itertools

import numpy as np
import pytest

from lgequant.errors import EmptyMaskError, ParameterError
from lgequant.graphcut import (
    GraphCutConfig,
    Labeling,
    MyocardiumVolume,
    classify,
    data_cost_infarct,
    data_cost_normal,
    energy,
    interaction_potential,
)
from lgequant.maxflow import MaxFlowGraph
from lgequant.phantom import default_wedge_config, generate
from lgequant.pipeline import PipelineConfig, myocardium_volume, normalize_stage
from lgequant.rician import RicianMixtureParams, find_threshold, gaussian_term, rayleigh_shifted


def make_params(**kw):
    base = dict(alpha_r=0.12, sigma_r=0.10, a=-0.15, alpha_g=0.09, sigma_g=0.08, mu=0.75)
    base.update(kw)
    return RicianMixtureParams(**base)


def brute_force_energies(volume, params, config):
    """Independent exhaustive energy table over all 2^N labelings.

    Pairs are enumerated with plain nested loops over the 6-neighborhood;
    returns (energies array, list of masked voxel coordinates).
    """
    mask = volume.mask
    coords = [tuple(c) for c in np.argwhere(mask)]
    n = len(coords)
    index = {c: i for i, c in enumerate(coords)}
    vals = np.array([volume.intensity[c] for c in coords])
    d1 = np.array([data_cost_infarct(v, params) for v in vals])
    d0 = np.array([data_cost_normal(v, params) for v in vals])
    sigma = config.resolved_sigma(params)
    d_row, d_col, d_thr = volume.spacing_mm
    pairs = []
    for (z, r, c) in coords:
        for dz, dr, dc, dist in ((1, 0, 0, d_thr), (0, 1, 0, d_row), (0, 0, 1, d_col)):
            nb = (z + dz, r + dr, c + dc)
            if nb in index:
                w = d_row / dist
                v = interaction_potential(volume.intensity[z, r, c], volume.intensity[nb], sigma, w)
                pairs.append((index[(z, r, c)], index[nb], v))

    bits = (np.arange(2 ** n)[:, None] >> np.arange(n)) & 1
    energies = config.lambda_ * (bits @ d1 + (1 - bits) @ d0)
    for i, j, v in pairs:
        energies = energies + v * (bits[:, i] != bits[:, j])
    return energies, coords


def labeling_index(labeling, coords):
    bits = 0
    for i, c in enumerate(coords):
        if labeling.labels[c] == 1:
            bits |= 1 << i
    return bits


def random_instance(rng, max_voxels=16):
    shape = tuple(rng.integers(1, 5, size=3))
    while np.prod(shape) < 2:
        shape = tuple(rng.integers(1, 5, size=3))
    mask = np.zeros(shape, dtype=bool)
    n_vox = int(rng.integers(1, min(max_voxels, np.prod(shape)) + 1))
    idx = rng.choice(np.prod(shape), size=n_vox, replace=False)
    mask.ravel()[idx] = True
    intensity = rng.uniform(0.0, 1.0, size=shape)
    volume = MyocardiumVolume(intensity=intensity, mask=mask,
                              spacing_mm=(1.25, 1.25, 10.0))
    params = make_params(
        sigma_r=rng.uniform(0.06, 0.15), a=rng.uniform(-0.25, 0.0),
        mu=rng.uniform(0.6, 0.9), sigma_g=rng.uniform(0.05, 0.12),
        alpha_r=rng.uniform(0.05, 0.2), alpha_g=rng.uniform(0.05, 0.2),
    )
    config = GraphCutConfig(lambda_=float(rng.choice([0.5, 1.0, 2.0])))
    return volume, params, config


class TestDataCosts:
    def test_brighter_than_mu_free_infarct(self):
        p = make_params()
        assert data_cost_infarct(p.mu + 0.05, p) == 0.0

    def test_cost_at_gaussian_peak(self):
        p = make_params()
        expected = -np.log(p.alpha_g / (np.sqrt(2 * np.pi) * p.sigma_g))
        assert np.isclose(data_cost_infarct(p.mu, p), expected, rtol=1e-12)

    def test_probability_clamp(self):
        p = make_params(sigma_g=0.01)
        # far from mu the Gaussian underflows; cost must clamp at -ln(1e-12)
        assert np.isclose(data_cost_infarct(0.0, p), -np.log(1e-12), rtol=1e-9)

    def test_darker_than_rayleigh_mode_free_normal(self):
        p = make_params()
        assert data_cost_normal(p.rayleigh_mode - 0.02, p) == 0.0

    def test_cost_at_rayleigh_mode(self):
        p = make_params()
        expected = -np.log(p.alpha_r * np.exp(-0.5) / p.sigma_r)
        assert np.isclose(data_cost_normal(p.rayleigh_mode, p), expected, rtol=1e-12)

    def test_equal_costs_at_threshold(self):
        p = make_params()
        t = find_threshold(p)
        assert np.isclose(data_cost_normal(t, p), data_cost_infarct(t, p), atol=1e-9)


class TestInteractionPotential:
    def test_equal_intensities_max_penalty(self):
        assert interaction_potential(0.4, 0.4, sigma=0.5, w_dist=0.125) == 0.125

    def test_one_sigma_apart(self):
        v = interaction_potential(0.2, 0.7, sigma=0.5, w_dist=1.0)
        assert np.isclose(v, np.exp(-0.5), rtol=1e-12)

    def test_large_difference_vanishes(self):
        assert interaction_potential(0.0, 1.0, sigma=0.01) < 1e-300 or \
            interaction_potential(0.0, 1.0, sigma=0.01) < 1e-6


class TestClassify:
    def test_single_voxel_argmin(self):
        p = make_params()
        for value in (0.1, 0.5, 0.9):
            mask = np.zeros((1, 1, 1), dtype=bool)
            mask[0, 0, 0] = True
            vol = MyocardiumVolume(np.full((1, 1, 1), value), mask, (1.25, 1.25, 10.0))
            lab = classify(vol, p)
            want = 1 if data_cost_infarct(value, p) < data_cost_normal(value, p) else 0
            assert lab.labels[0, 0, 0] == want

    def test_two_voxel_bright_dark(self):
        p = make_params()
        intensity = np.array([[[0.95, 0.05]]])
        mask = np.ones((1, 1, 2), dtype=bool)
        vol = MyocardiumVolume(intensity, mask, (1.25, 1.25, 10.0))
        config = GraphCutConfig(sigma=0.01)
        lab = classify(vol, p, config)
        assert lab.labels[0, 0, 0] == 1 and lab.labels[0, 0, 1] == 0
        energies, coords = brute_force_energies(vol, p, config)
        assert energies[labeling_index(lab, coords)] == energies.min()

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(2024)
        for _ in range(40):
            vol, p, config = random_instance(rng)
            lab = classify(vol, p, config)
            energies, coords = brute_force_energies(vol, p, config)
            assert energies[labeling_index(lab, coords)] == energies.min()

    def test_module_energy_agrees_with_oracle_formula(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            vol, p, config = random_instance(rng)
            lab = classify(vol, p, config)
            energies, coords = brute_force_energies(vol, p, config)
            assert np.isclose(
                energy(vol, lab, p, config), energies[labeling_index(lab, coords)],
                rtol=1e-12, atol=1e-12,
            )

    def test_energy_dominates_uniform_labelings(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            vol, p, config = random_instance(rng)
            lab = classify(vol, p, config)
            e = energy(vol, lab, p, config)
            zeros = Labeling(np.zeros(vol.mask.shape, dtype=np.uint8), vol.mask)
            ones = Labeling(vol.mask.astype(np.uint8), vol.mask)
            assert e <= energy(vol, zeros, p, config) + 1e-12
            assert e <= energy(vol, ones, p, config) + 1e-12

    def test_forced_labels(self):
        p = make_params()
        rng = np.random.default_rng(3)
        intensity = rng.uniform(0.0, 1.0, size=(2, 4, 4))
        bright = p.mu + 0.1
        dark = p.rayleigh_mode - 0.1
        intensity[0, :2, :2] = bright     # bright block, all neighbors bright
        intensity[1, 2:, 2:] = dark
        mask = np.ones(intensity.shape, dtype=bool)
        vol = MyocardiumVolume(intensity, mask, (1.25, 1.25, 10.0))
        lab = classify(vol, p)
        assert lab.labels[0, 0, 0] == 1
        assert lab.labels[1, 3, 3] == 0

    def test_huge_lambda_reduces_to_thresholding(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            vol, p, _ = random_instance(rng)
            lab = classify(vol, p, GraphCutConfig(lambda_=1e6))
            vals = vol.intensity[vol.mask]
            want = (
                np.atleast_1d(data_cost_infarct(vals, p))
                < np.atleast_1d(data_cost_normal(vals, p))
            ).astype(np.uint8)
            assert np.array_equal(lab.labels[vol.mask], want)

    def test_deterministic(self):
        rng = np.random.default_rng(13)
        vol, p, config = random_instance(rng)
        lab1 = classify(vol, p, config)
        lab2 = classify(vol, p, config)
        assert np.array_equal(lab1.labels, lab2.labels)

    def test_empty_mask_rejected(self):
        vol = MyocardiumVolume(np.zeros((2, 2, 2)), np.zeros((2, 2, 2), dtype=bool),
                               (1.25, 1.25, 10.0))
        with pytest.raises(EmptyMaskError):
            classify(vol, make_params())


@pytest.fixture(scope="module")
def phantom_volume():
    """A 96x96x6 wedge phantom's normalized myocardium (2,680 voxels) and its fit."""
    ds, truth = generate(default_wedge_config(seed=1, noise_sigma=0.08))
    (norm, masks), _ = normalize_stage(ds, truth.contours, PipelineConfig(skip_realign=True))
    return myocardium_volume(ds, masks, stack=norm.stack), norm.params


def solved_graphs(monkeypatch):
    """Record every solved MaxFlowGraph's arcs, as built, and its solve result.

    Each entry is ``((n, to, cap), (flow, source_side))``; ``solve`` turns
    ``cap`` into residuals, so it is copied first.
    """
    solved = []
    solve = MaxFlowGraph.solve

    def spy(graph):
        built = (graph.n, list(graph._to), list(graph._cap))
        result = solve(graph)
        solved.append((built, result))
        return result

    monkeypatch.setattr(MaxFlowGraph, "solve", spy)
    return solved


def per_voxel_arcs(volume, params, config):
    """The arcs classify built one add_edge call at a time, in that order.

    Returns (to, cap) lists: a t-link per voxel with a nonzero net cost, in
    voxel order, then a symmetric n-link per 6-neighbour pair with a positive
    penalty, through-plane pairs first, then row and column pairs.
    """
    mask = volume.mask
    coords = [tuple(c) for c in np.argwhere(mask)]
    n = len(coords)
    index = {c: i for i, c in enumerate(coords)}
    to, cap = [], []

    def add(u, v, c, r):
        to.extend([v, u])
        cap.extend([float(c), float(r)])

    for i, c in enumerate(coords):
        v = volume.intensity[c]
        net = config.lambda_ * (data_cost_normal(v, params) - data_cost_infarct(v, params))
        if net > 0:
            add(n, i, net, 0.0)
        elif net < 0:
            add(i, n + 1, -net, 0.0)
    sigma = config.resolved_sigma(params)
    d_row, d_col, d_thr = volume.spacing_mm
    for step, dist in (((1, 0, 0), d_thr), ((0, 1, 0), d_row), ((0, 0, 1), d_col)):
        for c in coords:
            nb = tuple(np.add(c, step))
            if nb in index:
                w = interaction_potential(volume.intensity[c], volume.intensity[nb],
                                          sigma, d_row / dist)
                if w > 0:
                    add(index[c], index[nb], w, w)
    return to, cap


class TestNetwork:
    def test_arcs_in_per_voxel_order(self, monkeypatch, phantom_volume):
        volume, params = phantom_volume
        solved = solved_graphs(monkeypatch)
        config = GraphCutConfig()
        classify(volume, params, config)
        ((n, graph_to, graph_cap), _), = solved
        to, cap = per_voxel_arcs(volume, params, config)
        assert n == int(volume.mask.sum())
        assert graph_to == to
        assert np.allclose(graph_cap, cap, rtol=1e-12, atol=0)   # scalar vs vector exp

    def test_cut_certificate_on_phantom(self, monkeypatch, phantom_volume):
        # The cut costs E(labels) - lambda * sum(min(d0, d1)); max-flow equal
        # to that cut's value proves the cut, and so the labeling, minimal.
        volume, params = phantom_volume
        solved = solved_graphs(monkeypatch)
        for lambda_ in (0.5, 1.0, 2.0):
            config = GraphCutConfig(lambda_=lambda_)
            labeling = classify(volume, params, config)
            (_, (flow, _)), = solved
            solved.clear()
            vals = volume.intensity[volume.mask]
            floor = lambda_ * np.minimum(data_cost_normal(vals, params),
                                         data_cost_infarct(vals, params)).sum()
            assert flow > 1.0 and 0 < labeling.infarct_mask().sum() < vals.size
            assert np.isclose(flow + floor, energy(volume, labeling, params, config),
                              rtol=1e-9, atol=0)


class TestConfigDefaults:
    def test_lambda_default_is_one(self):
        assert GraphCutConfig().lambda_ == 1.0

    def test_sigma_defaults_to_mode_distance(self):
        p = make_params()
        assert GraphCutConfig().resolved_sigma(p) == p.mu - (p.sigma_r - p.a)

    def test_explicit_sigma_wins(self):
        assert GraphCutConfig(sigma=0.42).resolved_sigma(make_params()) == 0.42


class TestLabelingType:
    def test_rejects_labels_outside_mask(self):
        mask = np.zeros((1, 2, 2), dtype=bool)
        mask[0, 0, 0] = True
        labels = np.zeros((1, 2, 2), dtype=np.uint8)
        labels[0, 1, 1] = 1
        with pytest.raises(ValueError):
            Labeling(labels=labels, mask=mask)


class TestConfigRejects:
    @pytest.mark.parametrize("kw", [
        {"lambda_": float("inf")}, {"lambda_": float("nan")}, {"lambda_": -1.0},
        {"sigma": float("inf")}, {"sigma": float("nan")}, {"sigma": 0.0},
    ])
    def test_non_finite_or_non_positive(self, kw):
        with pytest.raises(ParameterError):
            GraphCutConfig(**kw)

    def test_modes_that_do_not_straddle(self):
        p = make_params()
        p.mu = p.rayleigh_mode - 0.1
        with pytest.raises(ParameterError):
            GraphCutConfig().resolved_sigma(p)
