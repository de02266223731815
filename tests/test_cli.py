import hashlib
import itertools
import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from priorscan import cli
from priorscan.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main, stream_rng
from priorscan.argmax_inference import confidence_ellipse, hessian_Jn, tau_n_sq, v_n_sq
from priorscan.chain_runtime import ModelChain, tour_sums
from priorscan.estimators import SurfaceEstimate, _segmentation
from priorscan.prior_family import logsumexp

TOY_COMMON = """\
[run]
model = normal-hier
seed = 7
n = 4000
out = {out}

[model]
y = -2, -1, 0, 1, 2
kernel = exact

[hyper]
rect_lower = -1, 0.5
rect_upper = 1, 1.5
h1 = 0, 1
grid = 3
"""


# the toy on the rectangle of the benchmark's toy workload, on an ST chain
TOY_ST = """\
[run]
model = normal-hier
seed = 1
n = 20000
out = {out}

[model]
y = -2, -1, 0, 1, 2

[hyper]
rect_lower = -1, 0.3
rect_upper = 1, 3
h1 = 0, 1
grid = 11

[inference]
functional = theta1

[st]
anchors = lattice:3x3
"""


def _write(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# config_sha256=")
    header = lines[1].split(",")
    body = np.array([[float(v) for v in ln.split(",")] for ln in lines[2:]])
    return header, body


def test_write_csv_matches_row_loop(tmp_path):
    # the writer before it became one np.savetxt call, kept as the reference
    cfg = cli.RunConfig(_write(tmp_path, f"[run]\nout = {tmp_path}\n"))
    rows = np.array([[-0.0, 5e-324, 1e300, -1e300], [3.0, np.nan, np.inf, -np.inf],
                     [0.1, 1.0 / 3.0, 2.0 ** 53, -7.0]])
    with open(tmp_path / "loop.csv", "w") as fh:
        fh.write(f"# config_sha256={cfg.sha256}\n" + "a,b,c,d\n")
        for row in rows:
            fh.write(",".join("%.17g" % v for v in row) + "\n")
    cfg.write("bulk.csv", rows, "a,b,c,d")
    assert (tmp_path / "bulk.csv").read_bytes() == (tmp_path / "loop.csv").read_bytes()


def test_write_table_matches_write_csv(tmp_path):
    # an estimate's to_csv after the hash line: the bytes of the same rows
    cfg = cli.RunConfig(_write(tmp_path, f"[run]\nout = {tmp_path}\n"))
    rows = np.array([[-0.0, 5e-324, 1e300, -1e300, np.nan],
                     [3.0, np.inf, -np.inf, 0.1, 1.0 / 3.0]])
    est = SurfaceEstimate(grid=rows[:, :2], values=rows[:, 2], se=rows[:, 3],
                          ess=rows[:, 4], n=2)
    cfg.write("table.csv", est)
    cfg.write("rows.csv", rows, "h_1,h_2,value,se,ess")
    assert (tmp_path / "table.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


class TestStreamRng:
    def test_streams_independent_and_reproducible(self):
        a = stream_rng(1, "x").random(4)
        b = stream_rng(1, "x").random(4)
        c = stream_rng(1, "y").random(4)
        d = stream_rng(2, "x").random(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)


class TestSurface:
    def test_outputs_and_h1_row(self, tmp_path):
        out = tmp_path / "out"
        cfg = _write(tmp_path, TOY_COMMON.format(out=out)
                     + "\n[inference]\nfunctional = theta1\n")
        assert main(["surface", cfg]) == EXIT_OK
        header, body = _read_csv(out / "surface.csv")
        assert header == ["h_1", "h_2", "value", "se", "ess"]
        assert body.shape == (9, 5)
        # h1 = (0, 1) is a grid point: B = 1 exactly, se = 0, ess ~ n
        # (the trailing partial tour is dropped, so ess may be n - 1)
        row = body[np.all(np.isclose(body[:, :2], [0.0, 1.0]), axis=1)][0]
        assert row[2] == 1.0 and row[3] == 0.0 and row[4] >= 3999.0
        assert (out / "functional_theta1.csv").exists()
        assert (out / "trace.txt").exists()

    def test_byte_identical_rerun(self, tmp_path):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        cfg1 = _write(tmp_path, TOY_COMMON.format(out=out1), "a.ini")
        cfg2 = _write(tmp_path, TOY_COMMON.format(out=out2), "b.ini")
        assert main(["surface", cfg1]) == EXIT_OK
        assert main(["surface", cfg2]) == EXIT_OK
        b1 = (out1 / "surface.csv").read_bytes()
        b2 = (out2 / "surface.csv").read_bytes()
        # identical apart from the config hash comment (out dir differs)
        assert b1.split(b"\n", 1)[1] == b2.split(b"\n", 1)[1]

    def test_out_env_override(self, tmp_path, monkeypatch):
        env_out = tmp_path / "env-out"
        monkeypatch.setenv("PRIORSCAN_OUT", str(env_out))
        cfg = _write(tmp_path, TOY_COMMON.format(out=tmp_path / "ignored"))
        assert main(["surface", cfg]) == EXIT_OK
        assert (env_out / "surface.csv").exists()
        assert not (tmp_path / "ignored").exists()


class TestArgmax:
    def test_report(self, tmp_path):
        out = tmp_path / "out"
        cfg = _write(tmp_path, TOY_COMMON.format(out=out))
        assert main(["argmax", cfg]) == EXIT_OK
        d = json.loads((out / "argmax.json").read_text())
        assert d["method"] == "tour"
        assert d["chi2_threshold"] == pytest.approx(5.991464547107979)
        assert d["alpha"] == 0.05
        assert not d["boundary_flag"]
        assert np.linalg.norm(np.array(d["h_n"]) - [0.0, 1.0]) < 0.3
        assert d["multistart_consistent"] is True
        assert 50.0 <= d["ess_h_n"] <= d["n"]
        assert d["optimizer"] == {"starts": 1, "newton_iters": 3, "moment_passes": 4}
        assert (out / "ellipse.csv").exists()

    def test_maximizes_over_complete_tours(self, tmp_path):
        # an n-target MH chain ends inside a tour; the sandwich uses only the
        # complete tours' rows, so h_n must be a stationary point over them
        from priorscan.argmax_inference import log_B_derivs

        out = tmp_path / "out"
        cfg_path = _write(tmp_path, TOY_COMMON.format(out=out)
                          .replace("kernel = exact", "kernel = mh"))
        assert main(["argmax", cfg_path]) == EXIT_OK
        d = json.loads((out / "argmax.json").read_text())
        run = cli.Run(cli.RunConfig(cfg_path))
        trace, family, tours = run.chain("argmax")
        assert d["n"] == tours.n_eff < trace.n
        h_n = np.array(d["h_n"])
        _, grad, _, _ = log_B_derivs(family, h_n, trace.Tmat[:tours.n_eff])
        bound = 1e-6 * (1.0 + np.abs(family.spec.grad_A(h_n)).max())
        assert np.abs(grad).max() < bound

    def test_low_weight_ess_warns(self, tmp_path, capsys):
        # 40 draws cannot give a weight ESS of 50 anywhere
        out = tmp_path / "out"
        cfg = _write(tmp_path, TOY_COMMON.format(out=out).replace("n = 4000", "n = 40"))
        code = main(["argmax", cfg])
        d = json.loads((out / "argmax.json").read_text())
        assert code == (cli.EXIT_WARN if d["boundary_flag"] else EXIT_OK)
        assert d["ess_h_n"] < 50.0
        err = capsys.readouterr().err
        assert err.startswith("warning: weight ESS ") and err.count("\n") == 1

    def test_batch_method_without_regeneration(self, tmp_path):
        # the variable-selection Gibbs chain has no regeneration marks
        out = tmp_path / "out"
        synth_cfg = _write(tmp_path, f"""\
[run]
model = none
seed = 3
out = {tmp_path}

[synth]
kind = regression
m = 40
q = 3
""", "synth.ini")
        assert main(["synth", synth_cfg]) == EXIT_OK
        cfg = _write(tmp_path, f"""\
[run]
model = vs-bernoulli-zellner
seed = 5
n = 400
out = {out}

[model]
data = {tmp_path}/regression.csv

[hyper]
rect_lower = 0.1, 2
rect_upper = 0.9, 20
h1 = 0.5, 8
grid = 5

[inference]
M = 10
""", "vs.ini")
        assert main(["argmax", cfg]) in (EXIT_OK, 1)
        d = json.loads((out / "argmax.json").read_text())
        assert d["method"] == "batch"
        assert isinstance(d["multistart_consistent"], bool)
        assert 1.0 <= d["ess_h_n"] <= 400
        assert set(d["optimizer"]) == {"starts", "newton_iters", "moment_passes"}
        # the sandwich over the M = 10 batches of 40 draws, as on the tour path
        assert np.asarray(d["J_n"]).shape == np.asarray(d["tau_n_sq"]).shape == (2, 2)
        assert (d["R"], d["n"], d["E_N1_hat"]) == (10, 400, 40)
        trace, family, _ = cli.Run(cli.RunConfig(cfg)).chain("argmax")
        ts = tour_sums(trace, _segmentation(400, None, 10), family, d["h_n"])
        v = v_n_sq(hessian_Jn(ts), tau_n_sq(ts))
        assert np.allclose(d["v_n_sq"], v, rtol=1e-12, atol=0.0)


class TestBand:
    def test_files(self, tmp_path):
        out = tmp_path / "out"
        cfg = _write(tmp_path, TOY_COMMON.format(out=out)
                     + "\n[inference]\nfunctional = theta1\nM = 40\n")
        assert main(["band", cfg]) == EXIT_OK
        header, body = _read_csv(out / "band.csv")
        assert header == ["h_1", "h_2", "center", "lower", "upper"]
        assert body.shape == (9, 5)
        width = body[:, 4] - body[:, 3]
        assert np.allclose(width, width[0])
        d = json.loads((out / "band.json").read_text())
        assert d["M"] == 40 and d["target"] == "I:theta1"
        assert d["ess_min"] > 0.0 and d["n_unreliable"] == 0

    def test_non_finite_band_is_a_runtime_error(self, tmp_path, capsys, monkeypatch):
        # one NaN functional value makes every batch deviation NaN
        out = tmp_path / "out"
        cfg = _write(tmp_path, TOY_COMMON.format(out=out)
                     + "\n[inference]\nfunctional = theta1\nM = 20\n")
        run_chain = cli.run_chain

        def with_nan(run, stream):
            trace, family = run_chain(run, stream)
            trace.g["theta1"][1234] = np.nan
            return trace, family

        monkeypatch.setattr(cli, "run_chain", with_nan)
        assert main(["band", cfg]) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.startswith("runtime error: ") and "not finite" in err
        assert not (out / "band.csv").exists()

    def test_replicate_coverage(self, tmp_path):
        out = tmp_path / "out"
        cfg = _write(tmp_path, TOY_COMMON.format(out=out)
                     + "\n[inference]\nfunctional = theta1\nM = 40\n")
        assert main(["band", cfg, "--replicate", "5"]) == EXIT_OK
        d = json.loads((out / "coverage.json").read_text())
        assert d["replications"] == 5
        assert 0.0 <= d["coverage"] <= 1.0

    def test_replicate_needs_analytic_truth(self, tmp_path):
        out = tmp_path / "out"
        cfg = _write(tmp_path, TOY_COMMON.format(out=out))  # no functional
        assert main(["band", cfg, "--replicate", "3"]) == EXIT_CONFIG
        assert not any(out.glob("*"))


class TestSerialTempering:
    def test_tune_then_run(self, tmp_path):
        out = tmp_path / "out"
        base = f"""\
[run]
model = normal-hier
seed = 11
n = 3000
out = {out}

[model]
y = -2, -1, 0, 1, 2

[hyper]
rect_lower = -0.5, 0.7
rect_upper = 0.5, 1.5
h1 = 0, 1
grid = 3

[st]
anchors = lattice:2x2
rounds = 6
steps_per_round = 3000
"""
        cfg = _write(tmp_path, base)
        rc = main(["st-tune", cfg])
        assert rc in (EXIT_OK, 1)
        d = json.loads((out / "st_tune.json").read_text())
        assert len(d["zetas"]) == 4
        # one max/min occupancy per round run; the best is the round returned
        ratios, occ = d["occupancy_ratios"], np.array(d["occupancies"])
        assert 1 <= len(ratios) <= 6 and (rc == EXIT_OK) == (ratios[-1] <= 2.0)
        assert min(ratios) == occ.max() / occ.min()
        header, body = _read_csv(out / "zeta.csv")
        assert header == ["h_1", "h_2", "zeta", "occupancy"]

        zetas = ", ".join(str(z) for z in d["zetas"])
        cfg2 = _write(tmp_path, base + f"zetas = {zetas}\n", "run2.ini")
        assert main(["st-run", cfg2]) == EXIT_OK
        _, occ = _read_csv(out / "occupancy.csv")
        assert occ[:, 3].sum() == pytest.approx(1.0, abs=1e-12)
        _, surf = _read_csv(out / "st_surface.csv")
        assert surf.shape == (9, 5)
        assert np.all(surf[:, 2] > 0)


@pytest.fixture(scope="module")
def tuned_toy_st(tmp_path_factory):
    """The TOY_ST config with the zetas st-tune wrote for it, and its out dir."""
    tmp = tmp_path_factory.mktemp("st")
    out = tmp / "out"
    base = TOY_ST.format(out=out)
    assert main(["st-tune", _write(tmp, base, "tune.ini")]) == EXIT_OK
    zetas = json.loads((out / "st_tune.json").read_text())["zetas"]
    return _write(tmp, base + f"zetas = {', '.join(map(repr, zetas))}\n"), out


@pytest.fixture
def st_runs(monkeypatch):
    """The anchor counts of the serial-tempering chains the CLI runs."""
    runs, run_st = [], cli.run_st

    def counted(model, spec, grid, **kw):
        runs.append(grid.m)
        return run_st(model, spec, grid, **kw)

    monkeypatch.setattr(cli, "run_st", counted)
    return runs


class TestEveryCommandOnST:
    """An [st] section puts surface, argmax, band and oracle-check on the
    serial-tempering chain, reweighted by its anchor-mixture ratio."""

    def test_oracle_check(self, tuned_toy_st, st_runs):
        cfg, out = tuned_toy_st
        assert main(["oracle-check", cfg]) == EXIT_OK
        assert st_runs == [9]
        d = json.loads((out / "oracle_check.json").read_text())
        assert d["grid_points"] == 121 and d["fraction_within_4se"] >= 0.95

    def test_argmax_ellipse_holds_the_oracle_argmax(self, tuned_toy_st, st_runs):
        cfg, out = tuned_toy_st
        assert main(["argmax", cfg]) == EXIT_OK
        assert st_runs == [9]
        d = json.loads((out / "argmax.json").read_text())
        assert d["method"] == "batch"    # an ST chain has no regeneration marks
        ellipse = confidence_ellipse(d["h_n"], np.array(d["v_n_sq"]), d["R"], d["alpha"])
        assert ellipse.contains(cli.Run(cli.RunConfig(cfg)).model.oracle_argmax())

    def test_band_covers_the_oracle_curve(self, tuned_toy_st, st_runs):
        cfg, out = tuned_toy_st
        assert main(["band", cfg]) == EXIT_OK
        assert st_runs == [9]
        _, body = _read_csv(out / "band.csv")
        model = cli.Run(cli.RunConfig(cfg)).model
        truth = np.array([model.oracle_I_theta1(h) for h in body[:, :2]])
        assert body.shape == (121, 5)
        assert np.all((body[:, 3] <= truth) & (truth <= body[:, 4]))

    def test_lda_surface_and_argmax(self, tmp_path, st_runs):
        from priorscan.models.lda import save_corpus, synth_corpus

        save_corpus(synth_corpus(seed=10, D=6, V=12, K=2, n_d=30), tmp_path / "corpus.txt")
        out = tmp_path / "out"
        cfg = _write(tmp_path, f"""\
[run]
model = lda-dirichlet
seed = 3
n = 300
out = {out}

[model]
corpus = {tmp_path / "corpus.txt"}
K = 2

[hyper]
rect_lower = 0.5, 0.5
rect_upper = 2, 2
h1 = 1, 1
grid = 3

[st]
anchors = lattice:2x2
""")
        assert main(["surface", cfg]) == EXIT_OK
        _, surf = _read_csv(out / "surface.csv")
        assert surf.shape == (9, 5) and np.all(np.isfinite(surf))
        assert main(["argmax", cfg]) in (EXIT_OK, cli.EXIT_WARN)
        assert st_runs == [4, 4]
        d = json.loads((out / "argmax.json").read_text())
        assert d["method"] == "batch" and d["n"] == 300     # 18 batches of 16 or 17
        for key in ("h_n", "J_n", "tau_n_sq", "v_n_sq"):
            assert np.all(np.isfinite(d[key])), key

    def test_variable_selection_against_enumeration(self, tmp_path, st_runs):
        # snr = 1 and g in [2, 20] keep neighbouring anchors' posteriors close
        # enough for st-tune to converge; at snr = 2, labels left anchors all but
        # unvisited.  Over [run] seeds 1-25 tuning converged in 3-8 rounds, every
        # grid point had ESS >= 50, and the largest |z| of a seed exceeded 4
        # once (4.84, seed 24; 3.42 next); seed 1's is 1.31
        synth = _write(tmp_path, f"[run]\nseed = 3\nout = {tmp_path}\n[synth]\n"
                                 "kind = regression\nm = 50\nq = 8\nsnr = 1\n", "synth.ini")
        assert main(["synth", synth]) == EXIT_OK
        out = tmp_path / "out"
        base = f"""\
[run]
model = vs-bernoulli-zellner
seed = 1
n = 10000
out = {out}

[model]
data = {tmp_path}/regression.csv

[hyper]
rect_lower = 0.2, 2
rect_upper = 0.8, 20
grid = 5

[st]
steps_per_round = 2000
"""
        assert main(["st-tune", _write(tmp_path, base, "tune.ini")]) == EXIT_OK
        zetas = json.loads((out / "st_tune.json").read_text())["zetas"]
        cfg = _write(tmp_path, base + f"zetas = {', '.join(map(repr, zetas))}\n")
        assert main(["surface", cfg]) == EXIT_OK
        assert st_runs == [9]
        # B_n is m(h) over the anchor mixture (1/m) sum_j m(h_j)/zeta_j, as in
        # oracle-check; m(h) sums log_collapsed over all 2^q models
        run = cli.Run(cli.RunConfig(cfg))
        models = list(itertools.product([False, True], repeat=run.model.q))

        def log_m(h):
            return logsumexp(np.array([run.model.log_collapsed(np.array(g), h)
                                       for g in models]))

        grid = run.st_grid
        log_ref = (logsumexp(np.array([log_m(a) for a in grid.anchors]) - np.log(grid.zetas))
                   - np.log(grid.m))
        _, body = _read_csv(out / "surface.csv")
        truth = np.exp([log_m(h) - log_ref for h in body[:, :2]])
        sure = body[:, 4] >= 50
        assert sure.sum() >= 20
        assert np.all(np.abs(body[sure, 2] - truth[sure]) <= 4 * body[sure, 3])

    def test_tune_on_a_wide_rectangle_keeps_zetas_finite(self, tmp_path):
        # the tuning rounds' log zetas span ~1200-1400 nats here; centred on
        # their mean, the lowest underflowed to 0 and st-tune exited 3
        out = tmp_path / "out"
        cfg = _write(tmp_path, TOY_ST.format(out=out)
                     .replace("rect_lower = -1, 0.3", "rect_lower = -6, 0.05")
                     .replace("rect_upper = 1, 3", "rect_upper = 6, 20"))
        assert main(["st-tune", cfg]) in (EXIT_OK, cli.EXIT_WARN)
        zetas = np.array(json.loads((out / "st_tune.json").read_text())["zetas"])
        assert zetas.shape == (9,) and np.all(np.isfinite(zetas) & (zetas > 0))


class TestSynthAndOracle:
    def test_synth_corpus(self, tmp_path):
        cfg = _write(tmp_path, f"""\
[run]
seed = 4
out = {tmp_path}

[synth]
kind = corpus
D = 4
V = 9
K = 2
n_d = 12
""")
        assert main(["synth", cfg]) == EXIT_OK
        from priorscan.models.lda import load_corpus
        corpus = load_corpus(tmp_path / "corpus.txt")
        assert corpus.D == 4 and corpus.V == 9

    def test_synth_unknown_kind(self, tmp_path):
        cfg = _write(tmp_path, f"[run]\nseed=1\nout={tmp_path}\n"
                               "[synth]\nkind = nope\n")
        assert main(["synth", cfg]) == EXIT_CONFIG

    def test_oracle_check(self, tmp_path):
        out = tmp_path / "out"
        cfg = _write(tmp_path, TOY_COMMON.format(out=out))
        assert main(["oracle-check", cfg]) == EXIT_OK
        d = json.loads((out / "oracle_check.json").read_text())
        assert d["fraction_within_4se"] >= 0.95
        assert d["grid_points"] == 9


# the toy config's model and hyperparameter lines, and the same for the
# variable-selection and LDA models, whose data files need not exist
TOY_LINES = ("model = normal-hier", "y = -2, -1, 0, 1, 2\nkernel = exact",
             "rect_lower = -1, 0.5\nrect_upper = 1, 1.5\nh1 = 0, 1")
VS_LINES = ("model = vs-bernoulli-zellner", "data = no-such-data.csv",
            "rect_lower = 0.1, 2\nrect_upper = 0.9, 20\nh1 = 0.5, 8")
LDA_LINES = ("model = lda-dirichlet", "corpus = no-such-corpus.txt\nK = 2",
             "rect_lower = 0.5, 0.5\nrect_upper = 2, 2\nh1 = 1, 1")


def _swap(lines, old, new):
    return tuple(line.replace(old, new) for line in lines)


class TestConfigErrors:
    def test_missing_file(self):
        assert main(["surface", "/nonexistent/run.ini"]) == EXIT_CONFIG

    def test_missing_model(self, tmp_path):
        cfg = _write(tmp_path, "[run]\nseed = 1\n")
        assert main(["surface", cfg]) == EXIT_CONFIG

    def test_bad_rect(self, tmp_path):
        bad = TOY_COMMON.format(out=tmp_path).replace(
            "rect_upper = 1, 1.5", "rect_upper = -2, 1.5")
        cfg = _write(tmp_path, bad)
        assert main(["surface", cfg]) == EXIT_CONFIG

    def test_both_n_and_R(self, tmp_path):
        cfg = _write(tmp_path, TOY_COMMON.format(out=tmp_path)
                     .replace("n = 4000", "n = 4000\nR = 10"))
        assert main(["surface", cfg]) == EXIT_CONFIG

    def test_bad_numbers(self, tmp_path):
        cfg = _write(tmp_path, TOY_COMMON.format(out=tmp_path)
                     .replace("h1 = 0, 1", "h1 = zero, one"))
        assert main(["surface", cfg]) == EXIT_CONFIG

    def test_unknown_model(self, tmp_path):
        cfg = _write(tmp_path, TOY_COMMON.format(out=tmp_path)
                     .replace("model = normal-hier", "model = mystery"))
        assert main(["surface", cfg]) == EXIT_CONFIG

    def test_unparseable_config(self, tmp_path):
        cfg = _write(tmp_path, "this is not an ini file\n")
        assert main(["surface", cfg]) == EXIT_CONFIG

    @pytest.mark.parametrize("command,old,new", [
        ("surface", "seed = 7", "seed = abc"),
        ("surface", "n = 4000", "n = 1.5"),
        ("band", "grid = 3", "grid = 3\n\n[inference]\nalpha = x"),
        ("surface", "grid = 3", "grid = 2.5"),
        ("surface", "n = 4000", "n = 0"),
        ("surface", "n = 4000", "R = 0"),
    ], ids=["seed", "n", "alpha", "grid", "n-zero", "R-zero"])
    def test_malformed_scalar(self, tmp_path, capsys, command, old, new):
        cfg = _write(tmp_path, TOY_COMMON.format(out=tmp_path).replace(old, new))
        assert main([command, cfg]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: ")


    @pytest.mark.parametrize("command,old,new", [
        ("surface", "grid = 3", "grid = 2.5"),
        ("surface", "grid = 3", "grid = 3\n\n[inference]\nM = many"),
        ("argmax", "grid = 3", "grid = 3\n\n[inference]\nalpha = x"),
        ("argmax", "grid = 3", "grid = 3\n\n[inference]\nalpha = 1.5"),
        ("band", "grid = 3", "grid = 3\n\n[inference]\nM = 2.5"),
        ("oracle-check", "grid = 3", "grid = x"),
        ("st-run", "grid = 3", "grid = 2.5"),
        ("surface", "grid = 3", "grid = 0"),
        ("band", "grid = 3", "grid = -2"),
        ("band", "grid = 3", "grid = 3\n\n[inference]\nM = 0"),
        ("band", "grid = 3", "grid = 3\n\n[inference]\nM = 1"),
        ("argmax", "grid = 3", "grid = 3\n\n[inference]\nM = 0"),
        ("surface", "grid = 3", "grid = 3, 4, 5"),
        ("st-run", "grid = 3", "grid = 3\n\n[st]\nanchors = lattice:3x3x3"),
        ("st-tune", "grid = 3", "grid = 3\n\n[st]\nanchors = lattice:2x2\nzetas = 1, 1, 1"),
        ("st-run", "grid = 3", "grid = 3\n\n[st]\nanchors = 0, 1; 0.5"),
        ("st-run", "grid = 3", "grid = 3\n\n[st]\nanchors = lattice:2x2\nzetas = inf, 1, 1, 1"),
        ("argmax", "grid = 3", "grid = 3\n\n[st]\nanchors = lattice:2x2\nzetas = 1, nan, 1, 1"),
        ("surface", "grid = 3", "grid = 3\n\n[st]\nanchors = lattice:3x3x3"),
        ("st-tune", "grid = 3", "grid = 3\n\n[st]\nsteps_per_round = 0"),
        ("st-tune", "grid = 3", "grid = 3\n\n[st]\nsteps_per_round = -5"),
        ("st-tune", "grid = 3", "grid = 3\n\n[st]\nrounds = 0"),
        ("surface", "kernel = exact", "kernel = foo"),
        ("argmax", "kernel = exact", "kernel = Exact"),
        ("surface", "h1 = 0, 1", "h1 = 0.0, 1.0, 2.0"),
        ("band", "rect_lower = -1, 0.5\nrect_upper = 1, 1.5\nh1 = 0, 1",
         "rect_lower = -1, 0.5, 0\nrect_upper = 1, 1.5, 1\nh1 = 0, 1, 0.5"),
        # K is read before the corpus, which need not exist
        ("surface", ("model = normal-hier", "y = -2, -1, 0, 1, 2"),
         ("model = lda-dirichlet", "corpus = no-such-corpus.txt\nK = 0")),
        ("band --replicate -3", "grid = 3",
         "grid = 3\n\n[inference]\nfunctional = theta1"),
        # keys and sections that no command reads, or not with this model
        ("surface", ("model = normal-hier", "y = -2, -1, 0, 1, 2", "kernel = exact"),
         ("model = lda-dirichlet", "corpus = no-such-corpus.txt\nK = 2",
          "kernel = foo\nsigma0 = -5")),
        ("st-tune", "grid = 3", "grid = 3\n\n[st]\nsteps_per_rond = 10"),
        ("surface", "[run]", "[DEFAULT]\nseed = 2\n\n[run]"),
        ("surface", "grid = 3", "grid = 3\n\n[infrence]\nalpha = 0.1"),
        ("surface", ("model = normal-hier", "y = -2, -1, 0, 1, 2\nkernel = exact", "n = 4000"),
         ("model = lda-dirichlet", "corpus = no-such-corpus.txt\nK = 2", "R = 50")),
        ("surface", ("n = 4000", "grid = 3"),
         ("R = 50", "grid = 3\n\n[st]\nanchors = lattice:2x2")),
        # synth counts: m = 0 wrote a header-only CSV with a RuntimeWarning,
        # D = 0 an empty corpus, and q = -2 exited 3
        ("synth", "grid = 3", "grid = 3\n\n[synth]\nkind = regression\nm = 0"),
        ("synth", "grid = 3", "grid = 3\n\n[synth]\nkind = corpus\nD = 0"),
        ("synth", "grid = 3", "grid = 3\n\n[synth]\nkind = regression\nq = -2"),
        # hyperparameters outside the model's open domain box, found before its
        # data file is read: numpy warned, then they exited 3, some after the chain
        ("argmax", "rect_lower = -1, 0.5", "rect_lower = -1, -0.5"),
        ("argmax", "h1 = 0, 1", "h1 = 0, inf"),
        ("surface", "h1 = 0, 1", "h1 = 0, -1"),
        ("st-run", "grid = 3", "grid = 3\n\n[st]\nanchors = 0, 1; 0, -0.5"),
        ("argmax", TOY_LINES, _swap(VS_LINES, "0.9, 20", "1.2, 20")),
        ("surface", TOY_LINES, _swap(VS_LINES, "0.1, 2", "0, 1")),
        ("surface", TOY_LINES, _swap(LDA_LINES, "lower = 0.5", "lower = -0.5")),
        ("band", TOY_LINES, _swap(LDA_LINES, "h1 = 1, 1", "h1 = 1, 0")),
        # toy data the model cannot take: they exited 3, y after the chain
        ("surface", "y = -2, -1, 0, 1, 2", "y = 1, nan, 2"),
        ("argmax", "y = -2, -1, 0, 1, 2", "y = 1, inf, 2"),
        ("surface", "kernel = exact", "kernel = exact\nsigma0 = -5"),
        ("band", "kernel = exact", "kernel = exact\nsigma0 = nan"),
        # a functional that the chain does not record
        *[(command, "grid = 3", "grid = 3\n\n[inference]\nfunctional = theta9")
          for command in ("argmax", "st-run", "st-tune", "oracle-check")],
    ], ids=["surface-grid", "surface-M", "argmax-alpha", "argmax-alpha-range",
            "band-M", "oracle-check-grid", "st-run-grid", "grid-zero",
            "grid-negative", "band-M-zero", "band-M-one", "argmax-M-zero",
            "grid-count-list", "st-lattice-dims", "st-zetas-count", "st-anchor-dims",
            "st-zetas-inf", "argmax-st-zetas-nan", "surface-st-lattice-dims",
            "st-steps-zero", "st-steps-negative", "st-rounds-zero",
            "kernel-unknown", "kernel-case", "h1-dims", "rect-dims", "lda-K-zero",
            "replicate-negative", "lda-toy-keys", "st-steps-typo", "default-section",
            "section-typo", "lda-R", "st-R", "synth-m-zero", "synth-D-zero",
            "synth-q-negative", "toy-rect-tau2", "toy-h1-inf", "toy-h1-tau2",
            "toy-st-anchor", "vs-rect-w", "vs-rect-w-zero", "lda-rect-eta", "lda-h1-alpha",
            "toy-y-nan", "toy-y-inf", "toy-sigma0-negative", "toy-sigma0-nan",
            "argmax-functional", "st-run-functional", "st-tune-functional",
            "oracle-check-functional"])
    def test_checked_before_the_chain(self, tmp_path, capsys, monkeypatch,
                                      command, old, new):
        # ``command`` may carry options; ``old`` and ``new`` are one
        # replacement or tuples of them
        def no_chain(*args, **kw):
            raise AssertionError("the chain ran before the config was checked")

        monkeypatch.setattr(cli, "run_chain", no_chain)
        monkeypatch.setattr(cli, "run_st", no_chain)
        monkeypatch.setattr(cli, "tune_zeta", no_chain)
        text = TOY_COMMON.format(out=tmp_path)
        for o, n in [(old, new)] if isinstance(old, str) else zip(old, new):
            assert o in text, o
            text = text.replace(o, n)
        cfg = _write(tmp_path, text)
        assert main([*command.split(), cfg]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("command, old, new, message", [
        ("st-tune", "grid = 3", "grid = 3\n\n[st]\nsteps_per_rond = 10",
         "[st] steps_per_rond: no command reads it; did you mean steps_per_round?"),
        ("surface", "grid = 3", "grid = 3\n\n[infrence]\nalpha = 0.1",
         "[infrence]: no command reads it; did you mean [inference]?"),
        ("surface", "model = normal-hier", "model = lda-dirichlet",
         "[model] y: the lda-dirichlet model does not read it"),
        # configparser lowercases keys; messages keep the documented spelling
        ("surface", "grid = 3", "grid = 3\n\n[inference]\nm = 1",
         "[inference] M: expected integer >= 2, got '1'"),
    ], ids=["key-typo", "section-typo", "other-model", "key-spelling"])
    def test_unread_key_message(self, tmp_path, capsys, command, old, new, message):
        cfg = _write(tmp_path, TOY_COMMON.format(out=tmp_path).replace(old, new))
        assert main([command, cfg]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_percent_is_read_verbatim(self, tmp_path):
        # with configparser's interpolation a '%' raised InterpolationSyntaxError
        out = tmp_path / "o%3"
        cfg = _write(tmp_path, TOY_COMMON.format(out=out))
        assert main(["surface", cfg]) == EXIT_OK
        assert (out / "surface.csv").is_file()

    @pytest.mark.parametrize("command", ["surface", "argmax", "band", "st-run",
                                         "oracle-check", "st-tune"])
    def test_unknown_functional(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        cfg = _write(tmp_path, TOY_COMMON.format(out=out)
                     + "\n[inference]\nfunctional = theta9\n")
        assert main([command, cfg]) == EXIT_CONFIG
        err = capsys.readouterr().err
        recorded = "theta1, _label" if command.startswith("st-") else "theta1"
        assert err == ("config error: [inference] functional: unknown 'theta9'; "
                       f"recorded: {recorded}\n")
        assert not any(out.glob("*"))


def test_every_output_carries_the_config_hash(tmp_path, monkeypatch):
    # every CSV's first line and every JSON's keys, each command's own config
    # hash; the trace files and corpus.txt keep their own formats
    toy = TOY_COMMON.format(out="unused") + "\n[inference]\nfunctional = theta1\nM = 20\n"
    st = toy + "\n[st]\nanchors = lattice:2x2\nrounds = 1\nsteps_per_round = 500\n"
    runs = [("synth", "[run]\nseed = 3\n[synth]\nkind = regression\nm = 20\nq = 3\n"),
            ("synth", "[run]\nseed = 4\n[synth]\nkind = corpus\n"),
            ("surface", toy), ("argmax", toy), ("band --replicate 2", toy),
            ("oracle-check", toy), ("st-tune", st), ("st-run", st)]
    seen = set()
    for i, (command, text) in enumerate(runs):
        out = tmp_path / f"out{i}"
        monkeypatch.setenv("PRIORSCAN_OUT", str(out))
        cfg = _write(tmp_path, text, f"{i}.ini")
        assert main([*command.split(), cfg]) in (EXIT_OK, cli.EXIT_WARN), command
        sha = hashlib.sha256(Path(cfg).read_bytes()).hexdigest()
        for path in out.iterdir():
            if path.suffix == ".csv":
                first = path.read_text().split("\n", 1)[0]
                assert first == f"# config_sha256={sha}", (command, path.name)
            elif path.suffix == ".json":
                assert json.loads(path.read_text()).get("config_sha256") == sha, (
                    command, path.name)
            else:
                assert path.name in ("trace.txt", "st_trace.txt", "corpus.txt"), path.name
            seen.add(path.name)
    assert seen == {"regression.csv", "regression.json", "corpus.txt", "corpus.txt.json",
                    "surface.csv", "functional_theta1.csv", "trace.txt", "argmax.json",
                    "ellipse.csv", "band.csv", "band.json", "coverage.json",
                    "oracle_check.json", "zeta.csv", "st_tune.json", "occupancy.csv",
                    "st_surface.csv", "st_trace.txt"}


def test_models_name_the_functionals_their_chains_record():
    # Run checks [inference] functional against these names before any chain
    from priorscan.models.lda import LDAModel, synth_corpus
    from priorscan.models.normal_hier import NormalHierModel
    from priorscan.models.varsel import VSModel, synth_regression
    from priorscan.serial_tempering import STGrid

    rng = np.random.default_rng(0)
    toy = NormalHierModel(y=[-1.0, 0.0, 2.0])
    data = synth_regression(seed=1, m=20, q=3)
    vs = VSModel(y=data.y, X=data.X)
    lda = LDAModel(synth_corpus(seed=2, D=3, V=6, K=2, n_d=5), K=2,
                   closeness_pairs=((0, 1, 0.05), (1, 2, 0.1)))
    anchors = np.array([[0.0, 1.0], [0.5, 2.0]])
    st_trace = cli.run_st(ModelChain(toy, anchors), toy.spec(),
                          STGrid(anchors=anchors, zetas=np.ones(2)), n=5, rng=rng)
    assert st_trace.functional_names == ["theta1", "_label"]
    for model, trace in [(toy, toy.exact_trace([0, 1], 5, rng=rng)),
                         (toy, toy.mh_trace([0, 1], n=5, rng=rng)),
                         (vs, vs.trace([0.5, 8], 5, rng=rng)),
                         (lda, lda.trace([1, 1], 3, rng=rng, burn=1))]:
        assert trace.functional_names == list(model.functionals)
    assert lda.functionals == ("close_0_1", "close_1_2")


ROOT = Path(__file__).resolve().parents[1]


def test_readme_documents_every_schema_key():
    readme = (ROOT / "README.md").read_text()
    documented = set(re.findall(r"^\| `\[(\w+)\]` \| `(\w+)` \|", readme, re.M))
    assert documented == set(cli.SCHEMA)


def _shipped_configs(monkeypatch):
    """(where, text) of the configs the benchmark writes, the CI heredocs and
    the README's INI blocks."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from workloads import WORKLOADS, render_configs

    for name, workload in WORKLOADS.items():
        for file, text in render_configs(workload.params, seed=1).items():
            yield f"{name} {file}", text
    ci = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    for file, text in re.findall(r"cat > (\S+\.ini) <<'EOF'\n(.*?)\n *EOF\n", ci, re.S):
        yield f"tests.yml {file}", textwrap.dedent(text)
    for i, text in enumerate(re.findall(r"```ini\n(.*?)```", (ROOT / "README.md").read_text(),
                                        re.S)):
        yield f"README block {i}", text


def test_shipped_configs_parse(tmp_path, monkeypatch):
    configs = list(_shipped_configs(monkeypatch))
    assert len(configs) >= 10
    for i, (where, text) in enumerate(configs):
        try:
            cli.RunConfig(_write(tmp_path, text, f"{i}.ini"))
        except cli.ConfigError as exc:
            raise AssertionError(f"{where}: {exc}") from exc


@pytest.mark.parametrize("seed", [21, 32])
def test_lda_st_occupancies_in_the_window(tmp_path, monkeypatch, seed):
    # the benchmark's lda-st st-run; with label moves along the lattice's
    # snake alone, these seeds left its occupancy window
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from workloads import OUT, WORKLOADS, _occupancy_window, parse_output, render_configs

    for name, text in render_configs(WORKLOADS["lda-st"].params, seed).items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("PRIORSCAN_OUT", raising=False)
    assert main(["synth", "synth.ini"]) == EXIT_OK
    assert main(["st-run", "st.ini"]) == EXIT_OK
    ok, detail = _occupancy_window({name: parse_output(tmp_path / OUT / name)
                                    for name in ("occupancy.csv", "st_trace.txt")})
    assert ok, detail


LDA_ARGMAX = """\
[run]
model = lda-dirichlet
seed = 1
n = 100

[model]
corpus = {corpus}
K = 2

[hyper]
rect_lower = 0.5, 0.5
rect_upper = 2, 2
h1 = 1, 1
grid = 3
"""


@pytest.mark.parametrize("command, want", [("surface", EXIT_OK), ("argmax", cli.EXIT_WARN),
                                           ("surface", EXIT_CONFIG)],
                         ids=["toy-surface", "lda-argmax-warning", "config-error"])
def test_process_exit_matches_main(tmp_path, monkeypatch, capsys, command, want):
    # ``python -m priorscan.cli`` ends through cli.entry, which freezes the
    # collector before exit: the same exit code, stderr and output bytes
    from priorscan.models.lda import save_corpus, synth_corpus

    if command == "argmax":
        save_corpus(synth_corpus(seed=10, D=6, V=12, K=2, n_d=30), tmp_path / "corpus.txt")
        text = LDA_ARGMAX.format(corpus=tmp_path / "corpus.txt")
    else:
        text = TOY_COMMON.format(out="unused").replace(
            "grid = 3", "grid = 3" if want == EXIT_OK else "grid = 0")
    cfg = _write(tmp_path, text)
    monkeypatch.setenv("PRIORSCAN_OUT", str(tmp_path / "main"))
    code = main([command, cfg])
    out, err = capsys.readouterr()
    src = str(Path(cli.__file__).resolve().parents[1])
    res = subprocess.run([sys.executable, "-m", "priorscan.cli", command, cfg],
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src,
                              "PRIORSCAN_OUT": str(tmp_path / "process")})
    assert code == res.returncode == want
    assert (out, err) == (res.stdout, res.stderr)
    assert (want == cli.EXIT_WARN) == err.startswith("warning: weight ESS"), err
    main_files, process_files = ({p.name: p.read_bytes() for p in (tmp_path / d).glob("*")}
                                 for d in ("main", "process"))
    assert main_files == process_files
    assert len(main_files) == {EXIT_OK: 2, cli.EXIT_WARN: 2, EXIT_CONFIG: 0}[want]


def test_start_up_and_toy_surface_leave_out_scipy(tmp_path):
    # importing scipy.special costs ~0.3 s of every command; the child runs
    # the toy and LDA commands with every import of scipy failing.  numpy.ma
    # (~20 ms of CPU, pulled in by np.median) stays out too
    from priorscan.models.lda import save_corpus, synth_corpus

    save_corpus(synth_corpus(seed=10, D=6, V=12, K=2, n_d=30), tmp_path / "corpus.txt")
    toy = _write(tmp_path, TOY_COMMON.format(out=tmp_path / "toy").replace(
        "kernel = exact", "kernel = mh") + "\n[inference]\nfunctional = theta1\n", "toy.ini")
    lda = _write(tmp_path, f"""\
[run]
model = lda-dirichlet
seed = 3
n = 100
out = {tmp_path / "lda"}

[model]
corpus = {tmp_path / "corpus.txt"}
K = 2

[hyper]
rect_lower = 0.5, 0.5
rect_upper = 2, 2
h1 = 1, 1
grid = 3

[inference]
functional = close_0_1

[st]
anchors = lattice:2x2
zetas = 1, 1, 1, 1
""", "lda.ini")
    runs = [[c, toy] for c in ("surface", "argmax", "band")]
    runs += [[c, lda] for c in ("surface", "argmax", "st-run")]
    code = ("import json, sys; sys.modules['scipy'] = None; import priorscan.cli as cli; "
            f"codes = [cli.main(args) for args in {runs!r}]; "
            "print(json.dumps([codes, [m for m, v in sys.modules.items() "
            "if (m.startswith('scipy') or m == 'numpy.ma') and v is not None]]))")
    src = str(Path(cli.__file__).resolve().parents[1])
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    codes, loaded = json.loads(res.stdout.splitlines()[-1])
    assert set(codes) <= {EXIT_OK, cli.EXIT_WARN} and loaded == [], res


def test_cli_import_leaves_out_scipy_stats():
    # scipy.stats costs ~0.3 s of every command's start-up
    code = "import sys, priorscan.cli; print('scipy.stats' in sys.modules)"
    src = str(Path(cli.__file__).resolve().parents[1])
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    assert res.stdout.strip() == "False"


@pytest.mark.parametrize("first, user, want", [
    ("", None, "1"),                # the default: one BLAS thread
    ("", "3", "3"),                 # a value the user set is kept
    ("import numpy; ", None, None), # too late to matter: left alone
])
def test_import_pins_blas_threads(first, user, want):
    # every BLAS call priorscan makes is small, so an OpenBLAS worker pool
    # only costs start-up CPU
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if user is not None:
        env["OPENBLAS_NUM_THREADS"] = user
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    code = (f"{first}import json, os, priorscan.cli; status = '/proc/self/status'; "
            "print(json.dumps([os.environ.get('OPENBLAS_NUM_THREADS'), "
            "[line.split()[1] for line in open(status) if line.startswith('Threads:')] "
            "if os.path.exists(status) else None]))")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    value, threads = json.loads(res.stdout)
    assert value == want
    if want == "1" and sys.platform.startswith("linux"):
        assert threads == ["1"]


class TestRuntimeErrors:
    def test_missing_corpus(self, tmp_path, capsys):
        cfg = _write(tmp_path, f"""\
[run]
model = lda-dirichlet
seed = 1
n = 10
out = {tmp_path / "out"}

[model]
corpus = {tmp_path / "no-such-corpus.txt"}
K = 2

[hyper]
rect_lower = 0.1, 0.1
rect_upper = 2, 2
h1 = 0.5, 0.5
""")
        assert main(["surface", cfg]) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.startswith("runtime error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["surface", "argmax"])
    def test_one_complete_tour(self, tmp_path, capsys, command):
        # R = 1 leaves one tour: tour-based SEs divide by R - 1 = 0
        out = tmp_path / "out"
        cfg = _write(tmp_path, TOY_COMMON.format(out=out)
                     .replace("n = 4000", "R = 1").replace("kernel = exact", "kernel = mh"))
        assert main([command, cfg]) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err == "runtime error: need at least 2 complete tours\n"
        assert not any(out.glob("*.csv"))

    # an infinite sum of squares in one draw makes log f_h NaN where tau^2 =
    # tau_1^2, so the grid pass raises at the first such point
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("command, output", [("surface", "surface.csv"),
                                                 ("argmax", "argmax.json"),
                                                 ("band", "band.csv")])
    def test_non_finite_log_ratio(self, tmp_path, capsys, monkeypatch, command, output):
        out = tmp_path / "out"
        cfg = _write(tmp_path, TOY_COMMON.format(out=out)
                     + "\n[inference]\nfunctional = theta1\nM = 20\n")
        run_chain = cli.run_chain

        def with_inf(run, stream):
            trace, family = run_chain(run, stream)
            trace.Tmat[1234, 1] = np.inf
            return trace, family

        monkeypatch.setattr(cli, "run_chain", with_inf)
        assert main([command, cfg]) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err == "runtime error: non-finite log ratio at h=[-1.  1.]\n"
        assert not (out / output).exists()
