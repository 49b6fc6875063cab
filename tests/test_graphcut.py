import inspect
import logging
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lgequant.errors import EmptyMaskError, ParameterError
from lgequant.graphcut import (
    MAX_LAMBDA,
    Labeling,
    MyocardiumVolume,
    _network,
    _reduce,
    check_lambda,
    classify,
    data_cost_infarct,
    data_cost_normal,
    energy,
    interaction_potential,
    interaction_sigma,
)
from lgequant.maxflow import MaxFlowGraph
from lgequant.phantom import default_wedge_config, generate
from lgequant.pipeline import myocardium_volume, normalize_stage
from lgequant.rician import RicianMixtureParams, find_threshold


def make_params(**kw):
    base = dict(alpha_r=0.12, sigma_r=0.10, a=-0.15, alpha_g=0.09, sigma_g=0.08, mu=0.75)
    base.update(kw)
    return RicianMixtureParams(**base)


def brute_force_energies(volume, params, lambda_=1.0):
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
    sigma = interaction_sigma(params)
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
    energies = lambda_ * (bits @ d1 + (1 - bits) @ d0)
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
    return volume, params, float(rng.choice([0.5, 1.0, 2.0]))


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

    def test_a_quotient_past_float_range_is_no_penalty(self):
        # sigma**2 is 1e-320, so 1 / (2 sigma**2) overflows: the penalty is 0, with no warning.
        assert interaction_potential(0.0, np.array([1.0, 0.0]), sigma=1e-160).tolist() == [0, 1]


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
        lab = classify(vol, p)
        assert lab.labels[0, 0, 0] == 1 and lab.labels[0, 0, 1] == 0
        energies, coords = brute_force_energies(vol, p)
        assert energies[labeling_index(lab, coords)] == energies.min()

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(2024)
        for _ in range(40):
            vol, p, lambda_ = random_instance(rng)
            lab = classify(vol, p, lambda_)
            energies, coords = brute_force_energies(vol, p, lambda_)
            assert energies[labeling_index(lab, coords)] == energies.min()

    def test_module_energy_agrees_with_oracle_formula(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            vol, p, lambda_ = random_instance(rng)
            lab = classify(vol, p, lambda_)
            energies, coords = brute_force_energies(vol, p, lambda_)
            assert np.isclose(
                energy(vol, lab, p, lambda_), energies[labeling_index(lab, coords)],
                rtol=1e-12, atol=1e-12,
            )

    def test_energy_dominates_uniform_labelings(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            vol, p, lambda_ = random_instance(rng)
            lab = classify(vol, p, lambda_)
            e = energy(vol, lab, p, lambda_)
            zeros = Labeling(np.zeros(vol.mask.shape, dtype=np.uint8), vol.mask)
            ones = Labeling(vol.mask.astype(np.uint8), vol.mask)
            assert e <= energy(vol, zeros, p, lambda_) + 1e-12
            assert e <= energy(vol, ones, p, lambda_) + 1e-12

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
            lab = classify(vol, p, 1e6)
            vals = vol.intensity[vol.mask]
            want = (
                np.atleast_1d(data_cost_infarct(vals, p))
                < np.atleast_1d(data_cost_normal(vals, p))
            ).astype(np.uint8)
            assert np.array_equal(lab.labels[vol.mask], want)

    def test_deterministic(self):
        rng = np.random.default_rng(13)
        vol, p, lambda_ = random_instance(rng)
        lab1 = classify(vol, p, lambda_)
        lab2 = classify(vol, p, lambda_)
        assert np.array_equal(lab1.labels, lab2.labels)

    def test_empty_mask_rejected(self):
        vol = MyocardiumVolume(np.zeros((2, 2, 2)), np.zeros((2, 2, 2), dtype=bool),
                               (1.25, 1.25, 10.0))
        with pytest.raises(EmptyMaskError):
            classify(vol, make_params())

    @pytest.mark.parametrize("spacing", [(1.0, 9e-7, 1.0), (2.5, 2.5, 5e-324), (1e-300, 1.0, 1.0)])
    def test_spacings_more_than_max_ratio_apart_rejected(self, spacing):
        MyocardiumVolume(np.zeros((2, 2, 2)), np.ones((2, 2, 2), dtype=bool), (1.0, 1.0, 1e6))
        with pytest.raises(ParameterError, match=re.escape("none more than 1e+06 times another")):
            MyocardiumVolume(np.zeros((2, 2, 2)), np.ones((2, 2, 2), dtype=bool), spacing)


@pytest.fixture(scope="module")
def phantom_volume():
    """A 96x96x6 wedge phantom's normalized myocardium (2,680 voxels) and its fit."""
    ds, truth = generate(default_wedge_config(seed=1, noise_sigma=0.08))
    (norm, masks), _ = normalize_stage(ds, truth.contours)
    return myocardium_volume(ds, masks, norm.stack, norm.box), norm.params


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


def per_voxel_mrf(volume, params, lambda_=1.0):
    """Each voxel's net cost and every positive-penalty link, one voxel at a time.

    Returns (net, links): ``net[i]`` is lambda * (d0 - d1) of voxel i in voxel
    order, and ``links`` lists (i, j, penalty) per 6-neighbour pair with a
    positive penalty, through-plane pairs first, then row and column pairs.
    """
    mask = volume.mask
    coords = [tuple(c) for c in np.argwhere(mask)]
    index = {c: i for i, c in enumerate(coords)}
    net = [lambda_ * (data_cost_normal(volume.intensity[c], params)
                      - data_cost_infarct(volume.intensity[c], params)) for c in coords]
    sigma = interaction_sigma(params)
    d_row, d_col, d_thr = volume.spacing_mm
    links = []
    for step, dist in (((1, 0, 0), d_thr), ((0, 1, 0), d_row), ((0, 0, 1), d_col)):
        for c in coords:
            nb = tuple(np.add(c, step))
            if nb in index:
                w = interaction_potential(volume.intensity[c], volume.intensity[nb],
                                          sigma, d_row / dist)
                if w > 0:
                    links.append((index[c], index[nb], w))
    return net, links


def arcs(net, links):
    """A graph's (to, cap) arc lists, as ``MaxFlowGraph`` lays them out.

    A t-link per nonzero net cost in node order, source links for net > 0 and
    sink links for net < 0, then a symmetric n-link per link.
    """
    n = len(net)
    to, cap = [], []

    def add(u, v, c, r):
        to.extend([v, u])
        cap.extend([float(c), float(r)])

    for i, v in enumerate(net):
        if v > 0:
            add(n, i, v, 0.0)
        elif v < 0:
            add(i, n + 1, -v, 0.0)
    for i, j, w in links:
        add(i, j, w, w)
    return to, cap


def per_voxel_arcs(volume, params, lambda_=1.0):
    """The full graph over every masked voxel, as (to, cap) arc lists."""
    return arcs(*per_voxel_mrf(volume, params, lambda_))


def per_voxel_reduction(volume, params, lambda_=1.0):
    """The residual graph classify hands to max-flow, one voxel at a time.

    A voxel whose |net| is strictly above the summed penalties of its links
    is fixed: label 1 for net > 0, else 0. Each link from a fixed voxel to a
    free one adds its penalty to the free voxel's net cost when the fixed
    label is 1 and subtracts it when it is 0. Free voxels are renumbered in
    voxel order. Returns (fixed, n_free, to, cap), ``fixed`` mapping voxel
    index to label.
    """
    net, links = per_voxel_mrf(volume, params, lambda_)
    n_sum = [0.0] * len(net)
    for i, j, w in links:
        n_sum[i] += w
        n_sum[j] += w
    fixed = {i: int(v > 0) for i, v in enumerate(net) if abs(v) > n_sum[i]}
    new = {i: k for k, i in enumerate(i for i in range(len(net)) if i not in fixed)}
    folded = list(net)
    for i, j, w in links:
        for a, b in ((i, j), (j, i)):
            if a in fixed and b in new:
                folded[b] += w if fixed[a] else -w
    free_links = [(new[i], new[j], w) for i, j, w in links if i in new and j in new]
    to, cap = arcs([folded[i] for i in new], free_links)
    return fixed, len(new), to, cap


def solve_arcs(n, to, cap):
    """Max flow of a graph given as (to, cap) arc lists: (flow, source side)."""
    return MaxFlowGraph(n, tails=to[1::2], heads=to[::2], caps=cap[::2],
                        rev_caps=cap[1::2]).solve()


class TestNetwork:
    def test_arcs_in_per_voxel_order(self, monkeypatch, phantom_volume):
        volume, params = phantom_volume
        solved = solved_graphs(monkeypatch)
        labeling = classify(volume, params)
        ((n, graph_to, graph_cap), _), = solved
        fixed, n_free, to, cap = per_voxel_reduction(volume, params)
        n_voxels = int(volume.mask.sum())
        assert n == n_free == n_voxels - len(fixed) and 0 < n_free < n_voxels
        assert graph_to == to
        assert np.allclose(graph_cap, cap, rtol=1e-12, atol=0)   # scalar vs vector exp
        _, full_side = solve_arcs(n_voxels, *per_voxel_arcs(volume, params))
        assert np.array_equal(labeling.labels[volume.mask], full_side)

    def test_cut_certificate_on_phantom(self, phantom_volume):
        # The full graph's cut costs E(labels) - lambda * sum(min(d0, d1));
        # its max-flow equal to that cut's value proves classify's labeling
        # minimal.
        volume, params = phantom_volume
        vals = volume.intensity[volume.mask]
        for lambda_ in (0.5, 1.0, 2.0):
            labeling = classify(volume, params, lambda_)
            flow, _ = solve_arcs(vals.size, *per_voxel_arcs(volume, params, lambda_))
            floor = lambda_ * np.minimum(data_cost_normal(vals, params),
                                         data_cost_infarct(vals, params)).sum()
            assert flow > 1.0 and 0 < labeling.infarct_mask().sum() < vals.size
            assert np.isclose(flow + floor, energy(volume, labeling, params, lambda_),
                              rtol=1e-9, atol=0)

    def test_classify_logs_its_reduction(self, caplog, phantom_volume):
        volume, params = phantom_volume
        with caplog.at_level(logging.INFO, logger="lgequant.graphcut"):
            classify(volume, params)
        fixed, n_free, to, _ = per_voxel_reduction(volume, params)
        [line] = [r.getMessage() for r in caplog.records if r.name == "lgequant.graphcut"]
        counts = [int(x) for x in re.fullmatch(
            r"graphcut: (\d+) voxels, (\d+) fixed to label 0, (\d+) to label 1; "
            r"max-flow on (\d+) nodes and (\d+) arcs", line).groups()]
        ones = sum(fixed.values())
        assert counts == [volume.mask.sum(), len(fixed) - ones, ones, n_free, len(to) // 2]


def unreduced_graph(net, p, q, caps) -> MaxFlowGraph:
    """The network before ``_reduce``: a t-link per nonzero ``net``, then every n-link."""
    n = net.size
    t = np.flatnonzero(net)
    return MaxFlowGraph(
        n,
        tails=np.concatenate([np.where(net[t] < 0, t, n), p]),
        heads=np.concatenate([np.where(net[t] < 0, n + 1, t), q]),
        caps=np.concatenate([np.abs(net[t]), caps]),
        rev_caps=np.concatenate([np.zeros(t.size), caps]),
    )


def cut_value(net, p, q, caps, side):
    """What the s/t cut with source side ``side`` (label 1) costs."""
    return (np.maximum(net, 0)[~side].sum() + np.maximum(-net, 0)[side].sum()
            + caps[side[p] != side[q]].sum())


@st.composite
def tied_graphs(draw):
    """A random graph of a few hundred nodes with integer capacities.

    About one node in four gets a t-weight of exactly plus or minus its
    summed n-link capacity (an exact tie); returns (net, p, q, caps, tied).
    """
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(100, 400))
    m = draw(st.integers(n, 3 * n))
    p = rng.integers(0, n, m)
    q = (p + rng.integers(1, n, m)) % n   # no self-links
    caps = rng.integers(0, draw(st.integers(1, 4)), m).astype(float)
    n_sum = np.bincount(p, caps, n) + np.bincount(q, caps, n)
    t_max = draw(st.integers(1, 12))
    net = rng.integers(-t_max, t_max + 1, n).astype(float)
    tied = rng.random(n) < 0.25
    net[tied] = np.where(rng.random(n) < 0.5, 1.0, -1.0)[tied] * n_sum[tied]
    return net, p, q, caps, tied


class TestReduction:
    @settings(max_examples=60, deadline=None)
    @given(tied_graphs())
    def test_reduced_cut_equals_full_cut(self, graph):
        net, p, q, caps, tied = graph
        label, edges = _reduce(net, p, q, caps)
        free = label < 0
        assert free[tied].all()
        if free.any():
            _, label[free] = MaxFlowGraph(int(free.sum()), *edges).solve()
        flow, side = unreduced_graph(net, p, q, caps).solve()
        assert np.array_equal(label == 1, side)
        assert cut_value(net, p, q, caps, label == 1) == cut_value(net, p, q, caps, side) == flow

    def test_all_fixed_skips_the_solve(self, monkeypatch):
        solved = solved_graphs(monkeypatch)
        net = np.array([3.0, -3.0])
        label, edges = _reduce(net, np.array([0]), np.array([1]), np.array([2.0]))
        assert label.tolist() == [1, 0] and all(e.size == 0 for e in edges)
        p = make_params()
        mask = np.ones((1, 1, 2), dtype=bool)
        volume = MyocardiumVolume(np.array([[[0.95, 0.05]]]), mask, (1.25, 1.25, 10.0))
        assert classify(volume, p).labels.tolist() == [[[1, 0]]]
        assert solved == []


@st.composite
def masked_volumes(draw):
    """A random volume of 200-2,000 masked voxels, beyond the brute-force range, and a fit."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n_masked = draw(st.integers(200, 2000))
    n_slices = int(rng.integers(2, 7))
    side = int(np.ceil(np.sqrt(n_masked / n_slices / rng.uniform(0.3, 1.0))))
    mask = np.zeros((n_slices, side, side), dtype=bool)
    mask.ravel()[rng.choice(mask.size, n_masked, replace=False)] = True
    volume = MyocardiumVolume(rng.uniform(0.0, 1.0, mask.shape), mask,
                              (1.25, 1.25, float(rng.choice([1.25, 5.0, 10.0]))))
    params = make_params(
        sigma_r=rng.uniform(0.06, 0.15), a=rng.uniform(-0.25, 0.0),
        mu=rng.uniform(0.6, 0.9), sigma_g=rng.uniform(0.05, 0.12),
        alpha_r=rng.uniform(0.05, 0.2), alpha_g=rng.uniform(0.05, 0.2),
    )
    return volume, params


class TestCutEqualsEnergy:
    """The unreduced network's max-flow certifies classify's labeling as minimal.

    A labeling's cut in that network costs its energy minus lambda * sum(min(d0, d1)),
    so a flow of that value proves no labeling has a lower energy.
    """

    @settings(max_examples=60, deadline=None)
    @given(masked_volumes(), st.sampled_from([1.0, 0.1, 0.02]))
    def test_max_flow_equals_energy_of_classify(self, instance, lambda_):
        volume, params = instance
        d0, d1, p, q, caps = _network(volume, params)
        flow, _ = unreduced_graph(lambda_ * (d0 - d1), p, q, caps).solve()
        floor = lambda_ * np.minimum(d0, d1).sum()
        e = energy(volume, classify(volume, params, lambda_), params, lambda_)
        assert flow > 0
        assert abs(flow - (e - floor)) <= 1e-9 * flow


class TestDefaults:
    @pytest.mark.parametrize("func", [classify, energy])
    def test_lambda_default_is_one(self, func):
        assert inspect.signature(func).parameters["lambda_"].default == 1.0

    def test_sigma_is_the_mode_distance(self):
        p = make_params()
        assert interaction_sigma(p) == p.mu - (p.sigma_r - p.a)


class TestLabelingType:
    def test_rejects_labels_outside_mask(self):
        mask = np.zeros((1, 2, 2), dtype=bool)
        mask[0, 0, 0] = True
        labels = np.zeros((1, 2, 2), dtype=np.uint8)
        labels[0, 1, 1] = 1
        with pytest.raises(ValueError):
            Labeling(labels=labels, mask=mask)

    @pytest.mark.parametrize("labels, shown", [
        ([-1, 1], "-1"), ([0, 256], "256"), ([7, 7], "7"), ([0.5, 1.0], "0.5"),
        ([0.0, float("nan")], "nan"),
    ])
    def test_rejects_values_other_than_0_and_1(self, labels, shown):
        # Checked before the uint8 cast, which would wrap -1 to 255 and 256 to 0.
        with pytest.raises(ParameterError, match=f"labels must be 0 or 1, got {shown}$"):
            Labeling(labels=np.array(labels), mask=np.ones(2, dtype=bool))

    @pytest.mark.parametrize("dtype", [np.uint8, np.int64, np.float64, bool])
    def test_uint8_one_pass_checks_give_the_same_messages(self, dtype):
        mask = np.array([True, False, True, True])
        if dtype is not bool:
            with pytest.raises(ParameterError, match=r"labels must be 0 or 1, got 7(\.0)?$"):
                Labeling(labels=np.array([0, 1, 7, 2], dtype=dtype), mask=mask)
        with pytest.raises(ParameterError, match="^labels outside the mask must be zero$"):
            Labeling(labels=np.array([1, 1, 0, 1], dtype=dtype), mask=mask)

    @pytest.mark.parametrize("labels", [[True, False], [1, 0], [1.0, 0.0]])
    def test_accepts_0_and_1_of_any_dtype(self, labels):
        labeling = Labeling(labels=np.array(labels), mask=np.ones(2, dtype=bool))
        assert labeling.labels.dtype == np.uint8 and labeling.labels.tolist() == [1, 0]


class TestRejects:
    @pytest.mark.parametrize("lambda_", [float("inf"), float("nan"), -1.0, 0.0, "1", True])
    def test_non_finite_or_non_positive_lambda(self, lambda_):
        with pytest.raises(ParameterError, match="^lambda must be"):
            check_lambda(lambda_)

    @pytest.mark.parametrize("lambda_", [-1.0, 1e308])
    def test_classify_and_energy_check_lambda(self, lambda_):
        vol = MyocardiumVolume(np.full((1, 1, 2), 0.5), np.ones((1, 1, 2), dtype=bool),
                               (1.25, 1.25, 10.0))
        with pytest.raises(ParameterError, match="^lambda must be"):
            classify(vol, make_params(), lambda_)
        with pytest.raises(ParameterError, match="^lambda must be"):
            energy(vol, Labeling(np.zeros((1, 1, 2)), vol.mask), make_params(), lambda_)

    def test_modes_that_do_not_straddle(self):
        p = make_params()
        p.mu = p.rayleigh_mode - 0.1
        with pytest.raises(ParameterError, match="do not straddle"):
            interaction_sigma(p)

    def test_lambda_above_its_bound(self):
        check_lambda(MAX_LAMBDA)
        with pytest.raises(ParameterError, match=re.escape("lambda must be at most 1e+06")):
            check_lambda(1e308)

    @pytest.mark.parametrize("mixture", [
        {"mu": 1e308}, {"a": 1e308}, {"a": 0.10, "mu": 5e-324},
    ], ids=["mu_far_above", "a_far_above", "modes_5e-324_apart"])
    def test_a_sigma_whose_square_leaves_float_range(self, mixture):
        with pytest.raises(ParameterError, match="squares outside float range"):
            interaction_sigma(make_params(**mixture))

    @pytest.mark.parametrize("mixture", [{"alpha_g": 1e308}, {"alpha_r": 1e308}])
    def test_densities_past_float_range(self, mixture):
        mask = np.ones((2, 3, 3), dtype=bool)
        intensity = np.linspace(0.0, 1.0, mask.size).reshape(mask.shape)
        volume = MyocardiumVolume(intensity, mask, (1.0, 1.0, 1.0))
        with pytest.raises(ParameterError, match="densities at the masked intensities overflow"):
            classify(volume, make_params(**mixture))
