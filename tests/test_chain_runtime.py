import json
import tracemalloc

import numpy as np
import pytest

from priorscan import chain_runtime
from priorscan.chain_runtime import (
    ChainTrace,
    load_trace,
    log_regen_prob,
    save_trace,
    segment_tours,
    simulate,
    tour_sums,
)
from priorscan.estimators import estimate_B
from priorscan.prior_family import ExpFamilyRatio


class _IIDKernel:
    """iid N(0, 1) draws: every step regenerates."""

    has_regen = True
    kernel_id = "unit-iid"

    def start(self, rng):
        return rng.standard_normal()

    def step(self, state, rng):
        return rng.standard_normal(), True

    def observe(self, x):
        return np.array([x, x * x]), {"g": float(x)}


class _NoRegenKernel:
    has_regen = False
    kernel_id = "no-regen"

    def start(self, rng):
        return 0.0

    def step(self, state, rng):
        return state + rng.standard_normal(), False

    def observe(self, state):
        return np.array([state]), {}


# ------------------------------------------------------------------
# ChainTrace
# ------------------------------------------------------------------

class TestChainTrace:
    def test_first_delta_required(self):
        with pytest.raises(ValueError):
            ChainTrace(Tmat=np.zeros((3, 1)), g={}, delta=[False, True, True])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ChainTrace(Tmat=np.zeros((3, 1)), g={"g": np.zeros(2)},
                       delta=[True, False, False])

    def test_unknown_functional(self):
        tr = ChainTrace(Tmat=np.zeros((2, 1)), g={"a": np.zeros(2)},
                        delta=[True, False])
        with pytest.raises(KeyError):
            tr.functional("b")


# ------------------------------------------------------------------
# simulate
# ------------------------------------------------------------------

class TestSimulate:
    def test_iid_all_regen(self):
        tr = simulate(_IIDKernel(), n=50, seed=0)
        assert tr.n == 50 and tr.delta.all()
        tours = segment_tours(tr)
        assert tours.R == 49 or not tr.ends_at_regen  # n-target drops last flag
        assert np.all(tours.lengths == 1)

    def test_no_regen_mode_flags(self):
        tr = simulate(_NoRegenKernel(), n=20, seed=0)
        assert tr.delta[0] and not tr.delta[1:].any()

    def test_determinism(self):
        a = simulate(_IIDKernel(), n=100, seed=42)
        b = simulate(_IIDKernel(), n=100, seed=42)
        assert np.array_equal(a.Tmat, b.Tmat)
        assert np.array_equal(a.g["g"], b.g["g"])
        assert np.array_equal(a.delta, b.delta)


def _regen_prob(w_x, w_y, c):
    return float(np.exp(log_regen_prob(np.log(w_x), np.log(w_y), np.log(c))))


class TestIndepMHRegenProb:
    @pytest.mark.parametrize("wx,wy,c,expect", [
        (2.0, 3.0, 5.0, 0.6),
        (8.0, 10.0, 4.0, 0.5),
        (2.0, 10.0, 4.0, 1.0),
    ])
    def test_spec_values(self, wx, wy, c, expect):
        assert _regen_prob(wx, wy, c) == pytest.approx(expect, rel=1e-12)

    def test_pointwise_minorization_identity(self):
        # The accepted-move flow times the regeneration probability must equal
        # s(x) nu(y) pointwise; in weight space that identity reads
        #   min(1, w_y/w_x) * r(x, y) = min(w_x, c) min(w_y, c) / (c w_x).
        rng = np.random.default_rng(8)
        for _ in range(500):
            wx, wy, c = np.exp(rng.uniform(-4, 4, size=3))
            lhs = min(1.0, wy / wx) * _regen_prob(wx, wy, c)
            rhs = min(wx, c) * min(wy, c) / (c * wx)
            assert lhs == pytest.approx(rhs, rel=1e-12)


# ------------------------------------------------------------------
# tours
# ------------------------------------------------------------------

class TestSegmentTours:
    def test_all_flags(self):
        tr = ChainTrace(Tmat=np.zeros((5, 1)), g={}, delta=[True] * 5,
                        ends_at_regen=True)
        tours = segment_tours(tr)
        assert tours.R == 5
        assert np.all(tours.lengths == 1)
        assert tours.boundaries[0] == 1 and tours.boundaries[-1] == 6

    def test_partial_tail_dropped(self):
        # flags at i = 1, 4, 5 with n = 6: tours (1..3), (4..4); 5..6 dropped
        delta = [True, False, False, True, True, False]
        tr = ChainTrace(Tmat=np.arange(6, dtype=float)[:, None], g={}, delta=delta)
        tours = segment_tours(tr)
        assert tours.R == 2
        assert np.array_equal(tours.lengths, [3, 1])
        assert tours.n_eff == 4

    def test_partition_identity(self, toy_model):
        tr = toy_model.mh_trace([0.0, 1.0], R=40, seed=2)
        tours = segment_tours(tr)
        assert tours.R == 40 and tours.lengths.sum() == tours.n_eff == tr.n

    def test_too_few_flags(self):
        tr = ChainTrace(Tmat=np.zeros((4, 1)), g={},
                        delta=[True, False, False, False])
        with pytest.raises(ValueError):
            segment_tours(tr)


class TestTourSums:
    def _toy_pieces(self, toy_model):
        trace = toy_model.mh_trace([0.0, 1.0], R=200, seed=3)
        tours = segment_tours(trace)
        fam = ExpFamilyRatio(toy_model.spec(), [0.0, 1.0])
        return trace, tours, fam

    def test_at_h1(self, toy_model):
        trace, tours, fam = self._toy_pieces(toy_model)
        ts = tour_sums(trace, tours, fam, [0.0, 1.0])
        scale = np.exp(ts.log_scale)
        assert np.allclose(ts.S * scale, ts.N, rtol=1e-12)
        g = trace.functional("theta1")[:tours.n_eff]
        expect = np.add.reduceat(g, tours.starts0)
        assert np.allclose(ts.T["theta1"] * scale, expect, rtol=1e-10)

    def test_sum_matches_estimate_B(self, toy_model):
        trace, tours, fam = self._toy_pieces(toy_model)
        h = [0.4, 1.8]
        ts = tour_sums(trace, tours, fam, h, with_derivs=False)
        total = ts.S.sum() * np.exp(ts.log_scale)
        # the trace ends at a regeneration, so n_eff = n and the sums match
        assert total == pytest.approx(tours.n_eff * estimate_B(trace, fam, h),
                                      rel=1e-12)

    def test_unknown_functional(self, toy_model):
        trace, tours, fam = self._toy_pieces(toy_model)
        with pytest.raises(KeyError):
            tour_sums(trace, tours, fam, [0.0, 1.0], functionals=["nope"])


# ------------------------------------------------------------------
# serialization
# ------------------------------------------------------------------

class TestTraceIO:
    def test_round_trip_bit_exact(self, tmp_path, toy_model):
        trace = toy_model.mh_trace([0.0, 1.0], n=500, seed=4)
        path = tmp_path / "trace.txt"
        save_trace(trace, path)
        back = load_trace(path)
        assert np.array_equal(trace.Tmat, back.Tmat)
        assert np.array_equal(trace.delta, back.delta)
        assert np.array_equal(trace.g["theta1"], back.g["theta1"])
        assert back.ends_at_regen == trace.ends_at_regen
        assert back.meta["h1"] == trace.meta["h1"]

    @staticmethod
    def _row_loop(trace, path):
        # the writer before it became one bulk %-format, kept as the reference
        names = trace.functional_names
        header = {"version": 1, "n": trace.n, "stat_dim": trace.stat_dim,
                  "functionals": names, "ends_at_regen": trace.ends_at_regen,
                  "meta": trace.meta}
        with open(path, "w") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            gcols = [trace.g[name] for name in names]
            for i in range(trace.n):
                vals = [*trace.Tmat[i], *(col[i] for col in gcols)]
                fh.write(",".join("%.17g" % v for v in vals))
                fh.write(",%d\n" % int(trace.delta[i]))

    def test_bulk_writer_matches_row_loop(self, tmp_path):
        special = [-0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e300, -1e300,
                   3.0, -7.0, 2.0 ** 53, 0.1, 1.0 / 3.0]
        rng = np.random.default_rng(2)
        n = 40
        Tmat = rng.normal(size=(n, 2)) * 10.0 ** rng.integers(-300, 300, (n, 2))
        Tmat[:len(special), 0] = special
        Tmat[:len(special), 1] = special[::-1]
        g = {"a": np.arange(n, dtype=float) - 5.0, "b": rng.normal(size=n)}
        g["b"][-len(special):] = special
        delta = rng.random(n) < 0.3
        delta[0] = True
        trace = ChainTrace(Tmat=Tmat, g=g, delta=delta, meta={"h1": [0.0, 1.0]})
        save_trace(trace, tmp_path / "bulk.txt")
        self._row_loop(trace, tmp_path / "loop.txt")
        assert (tmp_path / "bulk.txt").read_bytes() == (tmp_path / "loop.txt").read_bytes()

    @pytest.mark.parametrize("case", ["repeats", "long_run", "signed_zero", "nan",
                                      "delta", "n1"])
    def test_run_writer_matches_row_loop(self, tmp_path, monkeypatch, case):
        # the writer formats each run of bit-equal rows once per chunk of
        # rows; a run cut at a chunk edge writes the same bytes
        rows = np.array([[1.5, -2.0, 0.1], [1.5, -2.0, 0.1], [3.0, 1e-300, -0.0],
                         [3.0, 1e-300, 0.0], [3.0, 1e-300, 0.0],
                         [np.nan, 1.0, 2.0], [np.nan, 1.0, 2.0], [-0.0, -0.0, -0.0]])
        reps = np.array([3, 1, 2, 1, 4, 2, 1, 3])
        if case == "long_run":          # one run across several chunk edges
            rows, reps = rows[[0, 2, 3]], np.array([20, 3, 9])
        elif case == "signed_zero":     # -0.0 and 0.0 alternate, every row repeated
            rows = np.array([[0.0, -0.0, 1.0], [-0.0, 0.0, 1.0], [0.0, 0.0, -0.0]])
            rows, reps = np.tile(rows, (3, 1)), np.full(9, 2)
        elif case == "nan":             # NaNs (one with the sign bit) in runs
            rows = np.array([[np.nan, 0.0, 1.0], [-np.nan, 0.0, 1.0],
                             [np.nan, np.nan, np.nan], [np.inf, -np.inf, np.nan]])
            reps = np.array([2, 3, 1, 4])
        elif case == "n1":
            rows, reps = rows[:1], np.ones(1, dtype=int)
        Tmat = np.repeat(rows[:, :2], reps, axis=0)
        n = Tmat.shape[0]
        delta = np.zeros(n, dtype=bool)
        delta[0] = True
        if case == "delta":             # equal rows, flags inside the runs
            delta[[2, 3, 7, 8, 9]] = True
        trace = ChainTrace(Tmat=Tmat, g={"g": np.repeat(rows[:, 2], reps)},
                           delta=delta, meta={"h1": [0.0, 1.0]}, ends_at_regen=True)
        self._row_loop(trace, tmp_path / "loop.txt")
        non_divisor = next(c for c in range(5, n + 6) if n % c)
        for size in (1, 7, non_divisor, n + 5, chain_runtime.WRITE_ROWS):
            monkeypatch.setattr(chain_runtime, "WRITE_ROWS", size)
            save_trace(trace, tmp_path / "runs.txt")
            assert ((tmp_path / "runs.txt").read_bytes()
                    == (tmp_path / "loop.txt").read_bytes()), size
        back = load_trace(tmp_path / "runs.txt")
        for got, want in [(back.Tmat, trace.Tmat), (back.g["g"], trace.g["g"])]:
            # bit-exact but for the sign of NaN, which %.17g drops
            assert np.array_equal(got, want, equal_nan=True)
            keep = ~np.isnan(want)
            assert np.array_equal(np.signbit(got[keep]), np.signbit(want[keep]))
        assert np.array_equal(back.delta, trace.delta)
        assert back.ends_at_regen and back.n == n

    def test_writer_memory_does_not_grow_with_n(self, tmp_path):
        # MH-like rows, each repeated 1-11 times: the writer's peak at 8n rows
        # stays within a fixed budget of its peak at n rows
        rng = np.random.default_rng(6)

        def peak(n):
            reps = rng.integers(1, 12, n)
            Tmat = np.repeat(rng.normal(size=(n, 2)), reps, axis=0)[:n]
            delta = np.zeros(n, dtype=bool)
            delta[::40] = True
            trace = ChainTrace(Tmat=Tmat, g={"theta1": Tmat[:, 0] / 3.0}, delta=delta)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                save_trace(trace, tmp_path / "trace.txt")
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        n = 20_000
        assert peak(8 * n) - peak(n) < 2 ** 18

    def test_version_check(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text('{"version": 99}\n')
        with pytest.raises(ValueError):
            load_trace(path)
