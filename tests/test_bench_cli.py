import csv
import os
from dataclasses import fields, replace

import numpy as np
import pytest

from ensddm.bench_cli import (ScenarioConfig, ConfigError, parse_config_text,
                              config_from_mapping, load_config, run_scenario,
                              run_symbol_sweep, run_symbol_validation,
                              channel_meshes, manufactured_meshes, resolve_delta_d,
                              run_manufactured, run_timing_comparison, run_channel_mc,
                              darcy_scan_points, CSV_COLUMNS, main)
from ensddm.darcy_fem import build_darcy_space
from ensddm.robin_params import frequency_band, optimized_delta_d


def test_parse_config_grammar():
    raw = parse_config_text("""
    # comment
    scenario = small_k
    h_list = 0.125, 0.0625   # trailing comment
    tol = 1e-8
    allow_nonconverged = true
    J = 7
    """)
    cfg = config_from_mapping(raw)
    assert cfg.scenario == "small_k"
    assert cfg.h_list == (0.125, 0.0625)
    assert cfg.tol == 1e-8
    assert cfg.allow_nonconverged is True
    assert cfg.J == 7


def _config_text(value):
    if isinstance(value, tuple):
        return ", ".join(_config_text(v) for v in value)
    return str(value).lower() if isinstance(value, bool) else str(value)


def test_every_default_parses_back_from_config_text():
    cfg = ScenarioConfig()
    raw = {f.name: _config_text(getattr(cfg, f.name)) for f in fields(cfg)}
    parsed = config_from_mapping(raw)
    assert parsed == cfg
    # == cannot tell 3 from 3.0 or True from 1; the repr can
    assert repr(parsed) == repr(cfg)


def test_parse_rejects_bad_input():
    with pytest.raises(ConfigError):
        parse_config_text("just words\n")
    with pytest.raises(ConfigError):
        config_from_mapping({"no_such_key": "1"})
    with pytest.raises(ConfigError):
        config_from_mapping({"allow_nonconverged": "maybe"})
    with pytest.raises(ConfigError):
        config_from_mapping({"scenario": "nonsense"})
    with pytest.raises(ConfigError, match="'J'"):
        config_from_mapping({"J": "abc"})
    with pytest.raises(ConfigError):
        ScenarioConfig(robin_mode="explicit", delta_d=0.0).validate()
    # out-of-range values that used to surface as tracebacks deep in a run
    for key, value in [("h_list", ""), ("k_list", ""), ("J_list", ""), ("sweep_delta_s", ""),
                       ("sweep_points", "-1"), ("nu", "0"), ("g", "0"), ("alpha", "-1"),
                       ("field_scale", "0"), ("field_nf", "-1"), ("field_sigma", "-0.1"),
                       ("field_a0", "0"), ("field_lc", "0"), ("seed", "-1"),
                       ("J_list", "0, 2"), ("J_list", "-1"), ("k_list", "-1"),
                       ("k_list", "2.21, 0"), ("sweep_delta_s", "-1"),
                       # non-finite values fail no comparison, and a mesh size
                       # above 1 is clamped by the meshes
                       ("h_list", "nan"), ("h_list", "inf"), ("h_list", "5"),
                       ("h_list", "0.25, nan"), ("delta_s", "nan"), ("nu", "inf"),
                       ("tol", "nan"), ("k_list", "inf"), ("field_sigma", "nan"),
                       ("delta_d", "-inf"), ("sweep_delta_s", "nan"), ("out", ""),
                       # method names are attributes but not config keys
                       ("validate", "1"), ("field_spec", "1")]:
        with pytest.raises(ConfigError):
            config_from_mapping({key: value})


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("scenario = manufactured\nseed = 5\nout = results\n")
    cfg = load_config(str(path))
    assert cfg.seed == 5
    assert cfg.out == "results"


def test_mesh_factories():
    ms, md, pairing = manufactured_meshes(1 / 8)
    assert ms.nx == 16 and ms.ny == 8
    assert md.nx == 16 and md.ny == 8
    assert pairing.length == pytest.approx(np.pi)
    ms, md, pairing = channel_meshes(1 / 8)
    assert ms.nx == 24 and ms.ny == 8
    assert md.nx == 24 and md.ny == 24
    assert len(ms.boundary_edges("INFLOW")) == 8
    assert len(ms.boundary_edges("OUTFLOW")) == 8
    assert pairing.length == pytest.approx(3.0)


@pytest.mark.parametrize("meshes", [manufactured_meshes, channel_meshes])
def test_scan_points_are_the_darcy_quadrature_points(meshes):
    # a sample's k_min is scanned where the set-up evaluates its lag weights
    mesh_d = meshes(1 / 8)[1]
    np.testing.assert_array_equal(darcy_scan_points(mesh_d),
                                  build_darcy_space(mesh_d).qpoints.reshape(-1, 2))


def test_resolve_delta_d_modes():
    cfg = ScenarioConfig(robin_mode="explicit", delta_d=7.0)
    assert resolve_delta_d(cfg, np.pi, 1 / 16) == 7.0
    cfg = ScenarioConfig(robin_mode="optimized", delta_s=1.0)
    band = frequency_band(np.pi, 1 / 16)
    assert resolve_delta_d(cfg, np.pi, 1 / 16) == optimized_delta_d(1.0, 1.0, band)


def test_symbol_sweep_contains_optimum():
    cfg = ScenarioConfig(sweep_delta_s=(1.0,), sweep_points=15, h_list=(1 / 32,))
    rows = run_symbol_sweep(cfg)
    band = frequency_band(np.pi, 1 / 32)
    dstar = optimized_delta_d(1.0, 1.0, band)
    best = min(rows, key=lambda r: r["rho_max"])
    assert best["delta_d"] == pytest.approx(dstar, rel=1e-12)


def test_symbol_validation_rows():
    cfg = ScenarioConfig(seed=3)
    rows = run_symbol_validation(cfg, n_cases=20)
    assert len(rows) == 20
    assert max(r["abs_diff"] for r in rows) <= 1e-8


def test_run_scenario_manufactured_writes_csv(tmp_path):
    cfg = ScenarioConfig(scenario="manufactured", h_list=(1 / 4,), k_list=(2.21,),
                         out=str(tmp_path), tol=1e-5, max_iters=200)
    written = run_scenario(cfg)
    table = [p for p in written if p.endswith("manufactured.csv")][0]
    with open(table) as fh:
        rows = list(csv.DictReader(fh))
    assert [c for c in rows[0]] == CSV_COLUMNS
    assert len(rows) == 1
    assert rows[0]["converged"] == "True"
    assert float(rows[0]["err_us_l2"]) > 0


def test_scenario_table_carries_loop_timers_and_fill(tmp_path):
    cfg = ScenarioConfig(scenario="manufactured", h_list=(1 / 4,), k_list=(2.21, 4.11),
                         out=str(tmp_path), tol=1e-5, max_iters=200)
    _, reports = run_manufactured(cfg)
    report = reports[1 / 4][0]
    run_scenario(cfg)
    with open(tmp_path / "manufactured.csv") as fh:
        written = list(csv.DictReader(fh))
    header = list(written[0])
    i = header.index("t_solve_ms")
    assert header[i + 1:i + 6] == ["t_rhs_ms", "t_trisolve_ms", "t_trace_ms", "t_norm_ms",
                                   "lu_nnz"]
    assert header[i + 6] == "lag_ratio"
    for r in written:
        assert int(r["lu_nnz"]) == report.lu_nnz
        assert float(r["lag_ratio"]) == report.lag_ratio[int(r["j"])] > 0
        phases = [float(r[c]) for c in ("t_rhs_ms", "t_trisolve_ms", "t_trace_ms", "t_norm_ms")]
        assert all(t > 0 for t in phases)
        # the phases are parts of the loop, timed inside it
        assert sum(phases) <= float(r["t_solve_ms"]) + 1e-3 * len(phases)


def test_run_scenario_deterministic_nontiming_columns(tmp_path):
    def run(sub):
        cfg = ScenarioConfig(scenario="manufactured", h_list=(1 / 4,), k_list=(2.21, 4.11),
                             out=str(tmp_path / sub), tol=1e-5, max_iters=200)
        run_scenario(cfg)
        with open(tmp_path / sub / "manufactured.csv") as fh:
            rows = list(csv.DictReader(fh))
        return [{col: v for col, v in r.items() if not col.startswith("t_")} for r in rows]

    assert run("a") == run("b")


def test_run_scenario_channel_mc_and_reference_cache(tmp_path):
    cfg = ScenarioConfig(scenario="channel_mc", h_list=(1 / 4,), J_list=(2, 3),
                         J0=4, seed=123, out=str(tmp_path), tol=1e-5,
                         max_iters=300, dump_draws=True)
    written = run_scenario(cfg)
    mc = [p for p in written if p.endswith("mc_convergence.csv")][0]
    with open(mc) as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["J"]) for r in rows] == [2, 3]
    assert all(float(r["err_eu_s"]) >= 0 for r in rows)
    ref = [p for p in written if "mc_ref" in p][0]
    assert os.path.exists(ref)
    mtime = os.path.getmtime(ref)
    run_scenario(cfg)   # second run reuses the cached reference
    assert os.path.getmtime(ref) == mtime
    draws = tmp_path / "draws_J2.csv"
    with open(draws) as fh:
        drows = list(csv.DictReader(fh))
    assert len(drows) == 2 and "Y0" in drows[0]


def test_mc_reference_cache_keyed_on_inputs(tmp_path):
    cfg = ScenarioConfig(scenario="channel_mc", h_list=(1 / 4,), J_list=(2,),
                         J0=3, seed=123, out=str(tmp_path), tol=1e-5, max_iters=300)
    _, ref_a = run_channel_mc(cfg)
    _, ref_b = run_channel_mc(replace(cfg, field_sigma=0.1))
    assert ref_a != ref_b
    assert os.path.exists(ref_a) and os.path.exists(ref_b)
    assert os.path.basename(ref_a).startswith("mc_ref_seed123_n4_J3_")
    assert not np.array_equal(np.load(ref_a)["eu_d"], np.load(ref_b)["eu_d"])


def test_run_scenario_nonconvergence_policy(tmp_path):
    cfg = ScenarioConfig(scenario="manufactured", h_list=(1 / 4,), k_list=(2.21,),
                         out=str(tmp_path), tol=1e-14, max_iters=3)
    with pytest.raises(RuntimeError):
        run_scenario(cfg)
    cfg = ScenarioConfig(scenario="manufactured", h_list=(1 / 4,), k_list=(2.21,),
                         out=str(tmp_path), tol=1e-14, max_iters=3,
                         allow_nonconverged=True)
    run_scenario(cfg)


@pytest.mark.parametrize("command, text, run", [
    # seed 11 at sigma 0.15 draws a reference sample with lag ratio 1.03,
    # which never converges
    ("mc", "h_list = 0.25\nJ0 = 64\nJ_list = 8\nseed = 11\nfield_sigma = 0.15\n"
           "max_iters = 150\nper_sample_stop = true\n", "the J0 = 64 Monte Carlo reference"),
    # the timing draws have k near 1 but run with small-k's explicit Robin
    # weights; the small_k ensemble itself converges
    ("small-k", "h_list = 0.25\nJ = 2\nk_list = 1e-4\nmax_iters = 100\n"
                "compare_traditional = true\n", "the compare_traditional timing runs"),
], ids=["mc_reference", "small_k_timing"])
@pytest.mark.filterwarnings("ignore:sample 44 has lag ratio")
def test_cli_nonconverged_run_is_an_error_and_caches_no_reference(tmp_path, capsys, command,
                                                                  text, run):
    cfgfile, out = tmp_path / "c.cfg", tmp_path / "out"
    cfgfile.write_text(text)
    assert main([command, "--config", str(cfgfile), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{run} did not converge" in err
    assert not list(out.glob("mc_ref_*"))
    cfgfile.write_text(text + "allow_nonconverged = true\n")
    assert main([command, "--config", str(cfgfile), "--out", str(out)]) == 0
    assert not list(out.glob("mc_ref_*"))


def test_run_scenario_compare_traditional_writes_timing(tmp_path):
    cfg = config_from_mapping({"h_list": "0.25", "J": "2", "compare_traditional": "true",
                               "out": str(tmp_path)})
    written = run_scenario(cfg)
    assert str(tmp_path / "timing.csv") in written
    with open(tmp_path / "timing.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert rows[0]["nfact_ensemble"] == "2"
    assert rows[0]["nfact_traditional"] == "4"
    assert int(rows[0]["lu_nnz_traditional"]) > int(rows[0]["lu_nnz_ensemble"]) > 0


def test_timing_comparison_counts_factorizations():
    cfg = ScenarioConfig(tol=1e-5, max_iters=200)
    row, rep_e, rep_t, ctx = run_timing_comparison(cfg, 1 / 4, J=3)
    assert row["nfact_ensemble"] == 2
    assert row["nfact_traditional"] == 6
    assert rep_e.converged.all() and rep_t.converged.all()


def test_cli_sweep_and_symbol(tmp_path, capsys):
    assert main(["sweep", "--out", str(tmp_path / "sw")]) == 0
    assert (tmp_path / "sw" / "rho_sweep.csv").exists()
    assert main(["symbol", "--out", str(tmp_path / "sy"), "--seed", "4"]) == 0
    assert (tmp_path / "sy" / "symbol_contraction.csv").exists()


@pytest.mark.parametrize("text, command",
                         [("J = abc\n", "converge"), ("no_such_key = 1\n", "converge"),
                          ("h_list =\n", "mc"),
                          ("h_list = 0.25\nJ_list = 0, 2\n", "mc"),
                          ("h_list = 0.25\nJ_list = -1\n", "mc"),
                          ("h_list = 0.25\nk_list = -1\n", "converge"),
                          ("h_list = 0.25\nsweep_delta_s = -1\n", "sweep"),
                          ("h_list = nan\n", "converge"), ("h_list = inf\n", "converge"),
                          ("h_list = 5\n", "converge"), ("delta_s = nan\n", "converge"),
                          ("nu = inf\n", "converge"), ("tol = nan\n", "converge"),
                          ("out =\n", "converge"), ("h_list = 0.25, 0.125\n", "mc")],
                         ids=["J = abc\n", "no_such_key = 1\n", "mc h_list =\n",
                              "mc J_list = 0, 2", "mc J_list = -1", "converge k_list = -1",
                              "sweep sweep_delta_s = -1", "converge h_list = nan",
                              "converge h_list = inf", "converge h_list = 5",
                              "converge delta_s = nan", "converge nu = inf",
                              "converge tol = nan", "converge out =",
                              "mc h_list = 0.25, 0.125"])
def test_cli_bad_config_is_an_error_not_a_traceback(tmp_path, capsys, text, command):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text(text)
    assert main([command, "--config", str(cfgfile), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "out").exists()


def test_cli_converge_with_config(tmp_path):
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text("h_list = 0.25\nk_list = 2.21\ntol = 1e-5\nmax_iters = 200\n")
    rc = main(["converge", "--config", str(cfgfile), "--out", str(tmp_path / "out")])
    assert rc == 0
    assert (tmp_path / "out" / "manufactured.csv").exists()
    assert (tmp_path / "out" / "manufactured_iterations.csv").exists()
