"""Unit tests for the analytic Poisson/CLT baselines."""

import math

import numpy as np
import pytest

from repro.core.theory import (
    cov_from_dispersion,
    expected_bin_mean,
    poisson_aggregate_cov,
)


def test_expected_bin_mean():
    assert expected_bin_mean(40, 10.0, 0.404) == pytest.approx(161.6)


def test_poisson_cov_closed_form():
    # 1/sqrt(N lambda T)
    assert poisson_aggregate_cov(25, 10.0, 0.4) == pytest.approx(1.0 / math.sqrt(100))


def test_cov_decreases_with_sources():
    covs = [poisson_aggregate_cov(n, 10.0, 0.4) for n in (1, 4, 16, 64)]
    assert covs == sorted(covs, reverse=True)
    # Exactly like 1/sqrt(n): quadrupling n halves the cov.
    assert covs[1] == pytest.approx(covs[0] / 2)


def test_cov_against_simulated_poisson():
    rng = np.random.default_rng(0)
    n, rate, width = 30, 10.0, 0.4
    lam = n * rate * width
    counts = rng.poisson(lam, size=50000)
    empirical = counts.std() / counts.mean()
    assert empirical == pytest.approx(poisson_aggregate_cov(n, rate, width), rel=0.03)


@pytest.mark.parametrize(
    "args",
    [(0, 10.0, 0.4), (10, 0.0, 0.4), (10, 10.0, -1.0)],
)
def test_invalid_inputs(args):
    with pytest.raises(ValueError):
        poisson_aggregate_cov(*args)


class TestAggregateCovOfIndependent:
    """Independent sources have no coupling (R = 1), so the aggregate's
    c.o.v. is :func:`cov_from_dispersion` of their pooled dispersion."""

    @staticmethod
    def _cov(covs, means):
        means = np.asarray(means, dtype=float)
        variances = (np.asarray(covs) * means) ** 2
        return cov_from_dispersion(variances.sum() / means.sum(), 1.0, means.sum())

    def test_identical_sources_follow_clt(self):
        # n identical independent sources: cov / sqrt(n).
        assert self._cov([0.5] * 4, [10.0] * 4) == pytest.approx(0.25)

    def test_heterogeneous_sources(self):
        # std = 1, mean = 10.
        assert self._cov([1.0, 0.0], [1.0, 9.0]) == pytest.approx(0.1)
