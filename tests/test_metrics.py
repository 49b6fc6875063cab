import numpy as np
import pytest

from lgequant.errors import ParameterError
from lgequant.metrics import bland_altman, dice


class TestDice:
    def test_identical_nonempty(self):
        a = np.zeros((4, 4), dtype=bool)
        a[1:3, 1:3] = True
        assert dice(a, a) == 1.0

    def test_disjoint(self):
        a = np.zeros(8, dtype=bool)
        b = np.zeros(8, dtype=bool)
        a[:3] = True
        b[4:] = True
        assert dice(a, b) == 0.0

    def test_half_overlap(self):
        a = np.zeros(8, dtype=bool)
        b = np.zeros(8, dtype=bool)
        a[0:4] = True
        b[2:6] = True
        assert dice(a, b) == 0.5

    def test_empty_empty_is_one(self):
        assert dice(np.zeros(5, dtype=bool), np.zeros(5, dtype=bool)) == 1.0

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rng.random(30) < 0.4
            b = rng.random(30) < 0.4
            assert dice(a, b) == dice(b, a)

    def test_one_iff_equal(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = rng.random(30) < 0.5
            b = a.copy()
            assert dice(a, b) == 1.0
            if a.any():
                b[np.argmax(a)] = False
                assert dice(a, b) < 1.0


class TestBlandAltman:
    def test_perfect_agreement(self):
        stats = bland_altman([(1.0, 1.0), (2.0, 2.0)])
        assert stats.mean_diff == 0.0
        assert stats.sd_diff == 0.0
        assert stats.loa_low == 0.0 and stats.loa_high == 0.0

    def test_symmetric_disagreement(self):
        stats = bland_altman([(0.0, 2.0), (2.0, 0.0)])
        assert stats.mean_diff == 0.0
        assert np.isclose(stats.sd_diff, 2.8284271247461903, rtol=1e-12)
        assert np.isclose(stats.loa_low, -5.543717164502533, rtol=1e-12)
        assert np.isclose(stats.loa_high, 5.543717164502533, rtol=1e-12)

    def test_single_pair_rejected(self):
        with pytest.raises(ValueError):
            bland_altman([(1.0, 2.0)])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_pair_rejected(self, bad):
        with pytest.raises(ParameterError, match="pairs must be finite"):
            bland_altman([(1.0, 2.0), (bad, 3.0), (4.0, 4.5)])

    def test_antisymmetry(self):
        rng = np.random.default_rng(5)
        pairs = rng.normal(size=(12, 2))
        fwd = bland_altman(pairs)
        rev = bland_altman(pairs[:, ::-1])
        assert np.isclose(fwd.mean_diff, -rev.mean_diff, rtol=1e-12)
        assert np.isclose(fwd.sd_diff, rev.sd_diff, rtol=1e-12)
        assert np.isclose(fwd.loa_low, -rev.loa_high, rtol=1e-12)
