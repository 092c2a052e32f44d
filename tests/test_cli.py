import json
import math

import numpy as np
import pytest

from cemhelm import cem, cli, spectral
from cemhelm.assembly import build_forms, element_loads
from cemhelm.cli import RunConfig, basis_decay, gen_medium, load_config, run, sweep, validate_resolution
from cemhelm.errors import IndivisibleMesh
from cemhelm.grid import build_coarse_grid
from cemhelm.medium import load_raster
from cemhelm.metrics import relative_errors
from cemhelm.models import instantiate
from cemhelm.reference import fine_load, solve_fine


def small_config(**kw):
    base = dict(model="model1", nx=32, NH=4, m=1, nbf=2, k=4.0)
    base.update(kw)
    return RunConfig(**base)


def test_validate_resolution_values():
    diag = validate_resolution(RunConfig(k=16.0, NH=40, epsilon=1.0, m=4))
    assert diag["k_H_over_eps"] == pytest.approx(0.4)
    assert diag["oversampling_floor"] == pytest.approx(abs(math.log(16.0)))
    assert not any("resolution" in w for w in diag["warnings"])

    diag2 = validate_resolution(RunConfig(k=16.0, NH=10, epsilon=1.0, m=4))
    assert diag2["k_H_over_eps"] == pytest.approx(1.6)
    assert any("resolution" in w for w in diag2["warnings"])

    diag3 = validate_resolution(RunConfig(k=16.0, NH=40, epsilon=1.0, m=2))
    assert any("oversampling" in w for w in diag3["warnings"])


def test_config_file_and_overrides(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(
        "# sample config\n"
        "model = model1\n"
        "nx = 32\n"
        "NH = 4\n"
        "m = 1\n"
        "nbf = 2\n"
        "k = 4.0\n"
        "strict_zero_trace = true\n"
        "H_list = 4,8\n"
    )
    cfg = load_config(p)
    assert cfg.model == "model1"
    assert cfg.nx == 32
    assert cfg.strict_zero_trace is True
    assert cfg.H_list == (4, 8)


def test_invalid_config_key(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("bogus = 1\n")
    with pytest.raises(ValueError):
        load_config(p)


def test_run_report_and_json(tmp_path):
    out = tmp_path / "report.json"
    cfg = small_config(out=str(out))
    report = run(cfg)
    assert report["errors"]["e_l2"] > 0.0
    assert report["coarse_dofs"] == 16 * 2
    assert set(report["timings"]) >= {"forms", "spectral", "basis", "coarse_solve"}
    on_disk = json.loads(out.read_text())
    assert on_disk["errors"] == report["errors"]


def test_run_errors_are_against_fine_reference():
    # model1 too: the errors are the multiscale errors, not the fine grid's
    cfg = small_config()
    report = run(cfg)
    spec = instantiate("model1", nx=cfg.nx, k=cfg.k)
    coarse = build_coarse_grid(spec.grid, cfg.NH)
    forms = build_forms(spec.grid, coarse, spec.medium, spec.k)
    P = spectral.build_projection(forms, cfg.nbf)
    blocks = element_loads(spec.grid, coarse, spec.f, spec.g)
    space = cem.build_space(forms, P, cfg.m, load_blocks=blocks)
    system = cem.assemble_coarse(space, forms, fine_load(spec))
    u_ms, _ = cem.solve_multiscale(system, space, forms=forms)
    expected = relative_errors(solve_fine(spec, forms=forms).values, u_ms, forms)
    assert report["errors"]["e_l2"] == pytest.approx(expected.e_l2, rel=1e-12)
    assert report["errors"]["e_energy"] == pytest.approx(expected.e_energy, rel=1e-12)


def test_run_invalid_NH():
    cfg = small_config(NH=7)
    with pytest.raises(IndivisibleMesh):
        run(cfg)


def test_run_determinism():
    a = run(small_config())
    b = run(small_config())
    assert a["errors"] == b["errors"]
    assert a["norms"] == b["norms"]


def test_sweep_rows_and_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    cfg = small_config(H_list=(2, 4), m_list=(1, 2))
    rows, ok = sweep(cfg, out_path=str(out))
    assert ok
    assert len(rows) == 4
    # sorted by H descending (NH ascending), then m ascending
    assert [(r["H"], r["m"]) for r in rows] == [(0.5, 1), (0.5, 2), (0.25, 1), (0.25, 2)]
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "H,m,nbf,e_l2,e_energy,coarse_dofs,seconds"
    assert len(lines) == 5


def test_single_cell_sweep_matches_run():
    cfg = small_config()
    report = run(cfg)
    rows, ok = sweep(small_config(H_list=(4,), m_list=(1,)))
    assert ok
    assert rows[0]["e_l2"] == report["errors"]["e_l2"]
    assert rows[0]["e_energy"] == report["errors"]["e_energy"]


def test_sweep_csv_deterministic(tmp_path):
    cfg = small_config(H_list=(4,), m_list=(1, 2))
    a, _ = sweep(cfg, out_path=str(tmp_path / "a.csv"))
    b, _ = sweep(cfg, out_path=str(tmp_path / "b.csv"))
    strip = lambda p: [
        ",".join(ln.split(",")[:-1]) for ln in p.read_text().splitlines()
    ]  # timings column excluded from the determinism contract
    assert strip(tmp_path / "a.csv") == strip(tmp_path / "b.csv")


def test_basis_decay_csv(tmp_path):
    out = tmp_path / "decay.csv"
    cfg = small_config(nx=32, NH=8, nbf=2, j=27, i=0, m_list=(1, 2, 3))
    tails, beta = basis_decay(cfg, out_path=str(out))
    assert len(tails) == 3
    assert tails[0] >= tails[1] >= tails[2]
    assert beta < 1.0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "m,tail_energy,beta_hat"
    assert len(lines) == 4


def test_gen_medium_round_trip(tmp_path):
    out = tmp_path / "medium.txt"
    cfg = RunConfig(nx=32, seed=5, contrast=1e-3, channels=4, out=str(out))
    med = gen_medium(cfg)
    back = load_raster(out)
    assert np.array_equal(back.values, med.values)
    assert back.contrast == pytest.approx(1e-3)


def test_main_validate_subcommand(capsys):
    rc = cli.main(["validate", "--k", "16", "--NH", "40", "--m", "4", "--nx", "200"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["k_H_over_eps"] == pytest.approx(0.4)


def test_main_run_subcommand(capsys):
    rc = cli.main(
        ["run", "--model", "model1", "--nx", "16", "--NH", "4", "--m", "1",
         "--nbf", "2", "--k", "4"]
    )
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert "errors" in report


def test_main_error_exit_code(capsys):
    rc = cli.main(
        ["run", "--model", "model2", "--nx", "16", "--NH", "4", "--m", "1",
         "--nbf", "2", "--k", "4"]
    )  # model2 without a medium and without --synthesize
    assert rc == 2


def test_main_bad_input_exit_code(tmp_path, capsys):
    # invalid values and config keys end with exit code 2, not a traceback
    assert cli.main(["validate", "--m", "-1"]) == 2
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus = 1\n")
    assert cli.main(["run", "--config", str(cfg)]) == 2


def test_main_gen_medium_and_reference(tmp_path, capsys):
    raster = tmp_path / "med.txt"
    rc = cli.main(
        ["gen-medium", "--nx", "16", "--seed", "3", "--contrast", "1e-3",
         "--channels", "2", "--out", str(raster)]
    )
    assert rc == 0
    field = tmp_path / "ref.csv"
    rc = cli.main(
        ["reference", "--model", "model3", "--nx", "16", "--NH", "4", "--m", "1",
         "--nbf", "2", "--k", "4", "--medium", str(raster), "--out", str(field)]
    )
    assert rc == 0
    assert field.read_text().startswith("x,y,re,im")


def test_run_dump_flags(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    eigs = tmp_path / "eigs.csv"
    cfg = small_config(dump_eigs=str(eigs), dump_basis="5,1")
    run(cfg)
    assert eigs.read_text().startswith("element,index,lambda")
    basis = tmp_path / "basis_5_1.csv"
    assert basis.exists()
    assert basis.read_text().startswith("node,x,y,re,im")


def test_run_no_corrector_mode():
    a = run(small_config())
    b = run(small_config(corrector=False))
    assert a["errors"]["e_l2"] != b["errors"]["e_l2"]
    c = run(small_config(corrector=False, trace_weight=-1.0))
    assert np.isfinite(c["errors"]["e_l2"])


def test_sweep_failed_cells_record_nan(tmp_path):
    out = tmp_path / "sweep.csv"
    cfg = small_config(H_list=(4, 7), m_list=(1,))  # NH=7 does not divide 32
    rows, ok = sweep(cfg, out_path=str(out))
    assert not ok
    assert len(rows) == 2
    good = [r for r in rows if r["H"] == 0.25][0]
    bad = [r for r in rows if r["H"] != 0.25][0]
    assert np.isfinite(good["e_l2"])
    assert math.isnan(bad["e_l2"])
    assert "nan" in out.read_text()
