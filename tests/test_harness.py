import math
import os

import numpy as np
import pytest

from stmfem import harness
from stmfem.cli import main as cli_main
from stmfem.harness import (
    ExperimentConfig,
    emit_tables,
    run_convergence,
    to_csv,
    to_markdown,
    to_plot_data,
)
from stmfem.mesh import level_seed
from stmfem.spaces import build_pair

from pointwise import parse_csv


@pytest.fixture(scope="module")
def small_record():
    cfg = ExperimentConfig(level_min=0, level_max=1)
    return run_convergence(cfg)


class TestConfig:
    def test_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.r == 2 and cfg.p == 2
        assert cfg.n_steps(3) == 80
        assert abs(cfg.omega - 10 * math.pi) < 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(level_min=3, level_max=1)
        with pytest.raises(ValueError):
            ExperimentConfig(solver="cg")
        with pytest.raises(ValueError):
            ExperimentConfig(distortion=0.6)

    @pytest.mark.parametrize("values", [
        dict(p=-1), dict(p=5), dict(r=0), dict(r=6),
        dict(level_min=9, level_max=9), dict(level_max=9),
        dict(n_steps_base=0), dict(final_time=0.0), dict(final_time=-1.0),
        dict(p=2.0), dict(omega=float("nan")), dict(omega=float("inf")),
        dict(omega=float("-inf")), dict(final_time=float("inf")),
        dict(final_time=float("nan")),
    ])
    def test_out_of_range_rejected(self, values):
        with pytest.raises(ValueError):
            ExperimentConfig(**values)

    def test_hash_stable_and_sensitive(self):
        a = ExperimentConfig(seed=1)
        b = ExperimentConfig(seed=1)
        c = ExperimentConfig(seed=2)
        assert a.reproducibility_hash() == b.reproducibility_hash()
        assert a.reproducibility_hash() != c.reproducibility_hash()


def test_single_level_record():
    cfg = ExperimentConfig(level_min=0, level_max=0)
    rec = run_convergence(cfg)
    assert rec.report.levels == [0]
    assert rec.report.eoc_u == [None]
    assert rec.report.n_dofs == [33]


def test_record_ndof_column_matches_spaces(small_record):
    from stmfem.harness import build_level_mesh
    rep = small_record.report
    for i, level in enumerate(rep.levels):
        m = build_level_mesh(small_record.config, level)
        scalar, flux = build_pair(m, small_record.config.p)
        assert rep.n_dofs[i] == scalar.n_dofs + flux.n_dofs


def test_spaces_built_once_per_level(monkeypatch):
    from stmfem import harness, timeloop
    calls = []
    for module in (harness, timeloop):
        original = module.build_pair

        def counted(m, p, original=original):
            calls.append(p)
            return original(m, p)

        monkeypatch.setattr(module, "build_pair", counted)
    run_convergence(ExperimentConfig(level_min=0, level_max=1, p=0, r=1))
    assert len(calls) == 2


def test_rerun_reproduces_bitwise(small_record):
    rec2 = run_convergence(small_record.config)
    assert rec2.report.err_u == small_record.report.err_u
    assert rec2.report.err_q == small_record.report.err_q


def test_csv_roundtrip(small_record):
    text = to_csv(small_record)
    cols = parse_csv(text)
    rep = small_record.report
    assert cols["level"] == rep.levels
    assert cols["N"] == rep.n_steps
    assert cols["ndof"] == rep.n_dofs
    for got, want in zip(cols["err_u"], rep.err_u):
        assert abs(got - want) / want < 1e-4  # 5 significant digits
    assert cols["eoc_u"][0] is None
    assert abs(cols["eoc_u"][1] - rep.eoc_u[1]) < 5e-3


def test_markdown_layout(small_record):
    text = to_markdown(small_record)
    lines = text.strip().splitlines()
    assert lines[0].startswith("| level |")
    assert len(lines) == 2 + len(small_record.report.levels)


def test_plot_data_slope_matches_eoc(small_record):
    text = to_plot_data(small_record)
    rows = [l.split() for l in text.strip().splitlines()[1:]]
    h = [float(r[0]) for r in rows]
    eu = [float(r[1]) for r in rows]
    slope = math.log(eu[0] / eu[1]) / math.log(h[0] / h[1])
    assert abs(slope - small_record.report.eoc_u[1]) < 1e-12


def test_emit_tables(tmp_path, small_record):
    for fmt, name in (("csv", "t.csv"), ("markdown", "t.md"),
                      ("plot-data", "t.dat")):
        path = emit_tables(small_record, fmt, tmp_path / name)
        assert os.path.getsize(path) > 0
    with pytest.raises(ValueError):
        emit_tables(small_record, "xml", tmp_path / "t.xml")


def test_distorted_levels_use_independent_seeds():
    assert level_seed(7, 0) != level_seed(7, 1)
    cfg = ExperimentConfig(level_min=1, level_max=1, distortion=0.1, seed=7)
    rec1 = run_convergence(cfg)
    cfg2 = ExperimentConfig(level_min=1, level_max=1, distortion=0.1, seed=8)
    rec2 = run_convergence(cfg2)
    assert rec1.report.err_u != rec2.report.err_u


class TestCli:
    def test_basic_run(self, tmp_path, capsys):
        code = cli_main(["--levels", "0..0", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "convergence_r2_p2_d0.csv").exists()
        assert (tmp_path / "convergence_r2_p2_d0.md").exists()
        assert (tmp_path / "convergence_r2_p2_d0.dat").exists()
        out = capsys.readouterr().out
        assert "err_u" in out and "config hash" in out

    def test_config_file_with_flag_override(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "levels = 0..0\nr = 2\np = 1\ndistortion = 0.05\nseed = 3\n")
        code = cli_main(["--config", str(cfg_file), "--p", "2",
                         "--out", str(tmp_path), "--quiet"])
        assert code == 0
        # flag override wins: p = 2 appears in the artifact name
        assert (tmp_path / "convergence_r2_p2_d5.csv").exists()

    def test_mesh_dump(self, tmp_path):
        code = cli_main(["--levels", "1..1", "--distortion", "0.1",
                         "--out", str(tmp_path), "--quiet", "--dump-meshes"])
        assert code == 0
        dumped = list(tmp_path.glob("mesh_level1_*.txt"))
        assert len(dumped) == 1
        assert "vertex" in dumped[0].read_text()

    def test_bad_config_returns_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("nope = 1\n")
        assert cli_main(["--config", str(bad)]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_output_path_that_is_a_file_fails_before_the_sweep(
            self, tmp_path, capsys, monkeypatch):
        def sweep(*args, **kwargs):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(harness, "run_convergence", sweep)
        taken = tmp_path / "taken"
        taken.write_text("")
        assert cli_main(["--levels", "0..0", "--out", str(taken)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("stmfem: output error: ")
        assert "Traceback" not in err

    def test_table_that_cannot_be_written_is_an_output_error(self, tmp_path,
                                                            capsys):
        (tmp_path / "convergence_r2_p2_d0.md").mkdir()
        code = cli_main(["--levels", "0..0", "--out", str(tmp_path), "--quiet"])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("stmfem: output error: cannot write table to ")

    def test_bad_levels_rejected(self, capsys):
        assert cli_main(["--levels", "3..1"]) == 2

    @pytest.mark.parametrize("argv", [
        ["--p", "7"], ["--r", "6"], ["--n-steps-base", "0"],
        ["--final-time", "-1"], ["--levels", "9..9"],
        ["--seed", "-1", "--distortion", "0.1"],
        ["--omega", "nan"], ["--omega", "inf"], ["--final-time", "inf"],
    ])
    def test_out_of_range_flags_are_configuration_errors(self, tmp_path,
                                                         capsys, argv):
        assert cli_main(argv + ["--out", str(tmp_path), "--quiet"]) == 2
        assert "configuration error" in capsys.readouterr().err
