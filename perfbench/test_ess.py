"""Tests of the benchmark's own ESS estimator: python3 -m pytest perfbench"""

import json

import numpy as np
import pytest

from ess import batch_means_ess, chain_stats, read_trace, trace_body_stats


def ar1(n: int, phi: float, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    e = rng.standard_normal(n)
    x = np.empty(n)
    x[0] = e[0] / np.sqrt(1.0 - phi ** 2)   # start in the stationary law
    for i in range(1, n):
        x[i] = phi * x[i - 1] + e[i]
    return x


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_iid_normal_ess_is_n(seed):
    n = 40_000
    x = np.random.default_rng(seed).standard_normal(n)
    assert batch_means_ess(x) == pytest.approx(n, rel=0.3)


@pytest.mark.parametrize("phi", [0.5, 0.9])
def test_ar1_ess_matches_closed_form(phi):
    n = 200_000
    exact = n * (1.0 - phi) / (1.0 + phi)
    assert batch_means_ess(ar1(n, phi, seed=7)) == pytest.approx(exact, rel=0.25)


def test_constant_series_is_rejected():
    with pytest.raises(ValueError):
        batch_means_ess(np.ones(100))


def test_accept_and_regen_rates():
    T = np.array([[1.0, 2.0], [1.0, 2.0], [3.0, 4.0], [3.0, 4.0], [5.0, 6.0]])
    delta = np.array([True, False, True, False, False])
    stats = chain_stats(T, T, delta)
    assert stats.accept_rate == 0.5          # 2 of 4 steps moved
    assert stats.regen_rate == 0.25          # 1 flag after the first draw


def test_trace_file_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    n = 400
    T = rng.standard_normal((n, 2))
    g = rng.standard_normal(n)
    delta = rng.random(n) < 0.1
    delta[0] = True
    path = tmp_path / "trace.txt"
    with open(path, "w") as fh:
        fh.write(json.dumps({"version": 1, "n": n, "stat_dim": 2,
                             "functionals": ["g"], "ends_at_regen": False,
                             "meta": {}}) + "\n")
        for i in range(n):
            fh.write("%.17g,%.17g,%.17g,%d\n" % (T[i, 0], T[i, 1], g[i], delta[i]))
    stats = trace_body_stats(*read_trace(path))
    direct = chain_stats(T, np.column_stack([T, g]), delta)
    assert stats == direct
    assert stats.regen_rate == np.count_nonzero(delta[1:]) / (n - 1)
