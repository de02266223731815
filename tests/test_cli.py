import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from priorscan import cli
from priorscan.cli import (EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main, stream_rng,
                           write_csv)
from priorscan.estimators import SurfaceEstimate

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
    rows = np.array([[-0.0, 5e-324, 1e300, -1e300], [3.0, np.nan, np.inf, -np.inf],
                     [0.1, 1.0 / 3.0, 2.0 ** 53, -7.0]])
    with open(tmp_path / "loop.csv", "w") as fh:
        fh.write("# config_sha256=abc\n" + "a,b,c,d\n")
        for row in rows:
            fh.write(",".join("%.17g" % v for v in row) + "\n")
    write_csv(tmp_path / "bulk.csv", "a,b,c,d", rows, "abc")
    assert (tmp_path / "bulk.csv").read_bytes() == (tmp_path / "loop.csv").read_bytes()


def test_write_table_matches_write_csv(tmp_path):
    # an estimate's to_csv after the hash line: the bytes write_csv gives
    rows = np.array([[-0.0, 5e-324, 1e300, -1e300, np.nan],
                     [3.0, np.inf, -np.inf, 0.1, 1.0 / 3.0]])
    est = SurfaceEstimate(grid=rows[:, :2], values=rows[:, 2], se=rows[:, 3],
                          ess=rows[:, 4], n=2)
    cli.write_table(tmp_path / "table.csv", est, "abc")
    write_csv(tmp_path / "rows.csv", "h_1,h_2,value,se,ess", rows, "abc")
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
        assert d["batch_boundary_count"] is None
        assert 50.0 <= d["ess_h_n"] <= d["n"]
        assert d["optimizer"]["starts"] == 9
        assert d["optimizer"]["moment_passes"] >= d["optimizer"]["newton_iters"] >= 9
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
        cfg = cli.RunConfig(cfg_path)
        model = cli.build_model(cfg)
        trace = cli.run_chain(model, cfg, "argmax")
        tours = cli.trace_tours(trace)
        assert d["n"] == tours.n_eff < trace.n
        family = cli.ExpFamilyRatio(model.spec(), cfg.h1())
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
        assert d["J_n"] is None
        assert isinstance(d["multistart_consistent"], bool)
        assert 0 <= d["batch_boundary_count"] <= 10
        assert 1.0 <= d["ess_h_n"] <= 400
        assert set(d["optimizer"]) == {"starts", "newton_iters", "moment_passes"}


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
        # half the draws shifted far away: at every grid point one half's
        # weights underflow to 0, so every batch curve is 0/0
        out = tmp_path / "out"
        cfg = _write(tmp_path, TOY_COMMON.format(out=out)
                     .replace("rect_lower = -1, 0.5", "rect_lower = -6, 0.05")
                     .replace("rect_upper = 1, 1.5", "rect_upper = 6, 20")
                     .replace("grid = 3", "grid = 11")
                     + "\n[inference]\nfunctional = theta1\nM = 20\n")
        run_chain = cli.run_chain

        def shifted(model, cfg, stream):
            trace = run_chain(model, cfg, stream)
            trace.Tmat[:2000, 0] -= 3000.0
            return trace

        monkeypatch.setattr(cli, "run_chain", shifted)
        with np.errstate(invalid="ignore"):
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
    ], ids=["surface-grid", "surface-M", "argmax-alpha", "argmax-alpha-range",
            "band-M", "oracle-check-grid", "st-run-grid"])
    def test_checked_before_the_chain(self, tmp_path, capsys, monkeypatch,
                                      command, old, new):
        def no_chain(*args, **kw):
            raise AssertionError("the chain ran before the config was checked")

        monkeypatch.setattr(cli, "run_chain", no_chain)
        monkeypatch.setattr(cli, "run_st", no_chain)
        cfg = _write(tmp_path, TOY_COMMON.format(out=tmp_path).replace(old, new))
        assert main([command, cfg]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: ")

    @pytest.mark.parametrize("command", ["surface", "band"])
    def test_unknown_functional(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        cfg = _write(tmp_path, TOY_COMMON.format(out=out)
                     + "\n[inference]\nfunctional = theta9\n")
        assert main([command, cfg]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == ("config error: [inference] functional: unknown 'theta9'; "
                       "recorded: theta1\n")
        assert not any(out.glob("*.csv"))


def test_start_up_and_toy_surface_leave_out_scipy(tmp_path):
    # importing scipy.optimize and scipy.special cost ~0.6 s of every command
    cfg = _write(tmp_path, TOY_COMMON.format(out=tmp_path / "out"))
    code = ("import sys, priorscan; import priorscan.cli as cli; "
            "before = [m for m in sys.modules if m.startswith('scipy')]; "
            f"assert cli.main(['surface', {cfg!r}]) == 0; "
            "print(before, [m for m in sys.modules if m.startswith('scipy')])")
    src = str(Path(cli.__file__).resolve().parents[1])
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    assert res.stdout.strip() == "[] []"


def test_cli_import_leaves_out_scipy_stats():
    # scipy.stats costs ~0.3 s of every command's start-up
    code = "import sys, priorscan.cli; print('scipy.stats' in sys.modules)"
    src = str(Path(cli.__file__).resolve().parents[1])
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    assert res.stdout.strip() == "False"


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

    # at w = 0 the variable-selection canonical map is -inf, so log f_h is
    # NaN or -inf on every draw there: numpy warns, then the grid pass raises
    @pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("command, output", [("surface", "surface.csv"),
                                                 ("argmax", "argmax.json"),
                                                 ("band", "band.csv")])
    def test_non_finite_log_ratio(self, tmp_path, capsys, command, output):
        out = tmp_path / "out"
        synth = _write(tmp_path, f"""\
[run]
model = none
seed = 3
out = {tmp_path}

[synth]
kind = regression
m = 30
q = 4
""", "synth.ini")
        assert main(["synth", synth]) == EXIT_OK
        cfg = _write(tmp_path, f"""\
[run]
model = vs-bernoulli-zellner
seed = 1
n = 400
out = {out}

[model]
data = {tmp_path}/regression.csv

[hyper]
rect_lower = 0, 1
rect_upper = 0.9, 20
h1 = 0.5, 5
grid = 3

[inference]
functional = qgamma
""")
        assert main([command, cfg]) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err == "runtime error: non-finite log ratio at h=[0. 1.]\n"
        assert not (out / output).exists()
