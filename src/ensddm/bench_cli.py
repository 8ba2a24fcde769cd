"""Experiment surface: scenario configuration, runners, CSV emission, CLI.

Scenarios
---------
manufactured   closed-form benchmark on [0,pi]x[0,1] over [0,pi]x[-1,0]:
               per-sample errors, iteration counts, convergence orders.
small_k        same geometry with conductivities of order 1e-4 and
               delta_S > delta_D.
channel_mc     water channel [0,3]x[0,1] over porous bed [0,3]x[-3,0] with a
               random conductivity field: Monte Carlo expectation study and
               shared-matrix vs per-sample timing comparison.
symbol_sweep   worst-case damping factor over a (delta_S, delta_D) grid.

Config files are flat `key = value` text (comma-separated lists, '#'
comments); every key has a scenario default.  See the README for the key
reference and the CSV schemas.
"""

import argparse
import csv
import hashlib
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .mesh import Rect, build_rect_mesh, pair_interface
from .fields import ConstantConductivity, KLConductivity
from .random_field import RandomFieldSpec, draw_samples, evaluate_k
from .robin_params import frequency_band, optimized_delta_d, worst_case_rho, \
    convergence_factor, symbol_iteration, measured_contraction
from .manufactured import ManufacturedSolution
from .ensemble_driver import (make_sample, make_context, BoundaryConditions,
                              run_ensemble_ddm, run_traditional_ddm)
from .darcy_fem import DarcySpace
from .norms import error_rows
from . import quadrature

CSV_COLUMNS = ["scenario", "h", "j", "iterations", "err_us_l2", "err_us_h1",
               "err_ps_l2", "err_phid_l2", "err_ud_l2", "err_ud_div",
               "t_assemble_ms", "t_factor_ms", "t_solve_ms", "t_rhs_ms", "t_trisolve_ms",
               "t_trace_ms", "t_norm_ms", "lu_nnz", "lag_ratio", "converged"]

SCENARIOS = ("manufactured", "small_k", "channel_mc", "symbol_sweep")
SYMBOL_CASES = 20          # the random parameter tuples of run_symbol_validation


class ConfigError(ValueError):
    pass


@dataclass
class ScenarioConfig:
    scenario: str = "manufactured"
    h_list: tuple = (1 / 16, 1 / 32, 1 / 64)
    nu: float = 1.0
    g: float = 1.0
    z: float = 0.0
    alpha: float = 1.0
    robin_mode: str = "optimized"        # optimized | explicit
    delta_s: float = 1.0
    delta_d: float = 0.0                 # used when robin_mode == explicit
    tol: float = 1e-6
    max_iters: int = 500
    J: int = 3
    k_list: tuple = (2.21, 4.11, 6.21)   # fixed conductivities (manufactured)
    seed: int = 20240901
    J0: int = 500                        # Monte Carlo reference size
    J_list: tuple = (40, 60, 100, 160)
    field_a0: float = 1.0
    field_sigma: float = 0.15
    field_lc: float = 0.25
    field_nf: int = 3
    field_scale: float = 1.0
    out: str = "out"
    allow_nonconverged: bool = False
    per_sample_stop: bool = False
    dump_draws: bool = False
    compare_traditional: bool = False
    sweep_delta_s: tuple = (0.01, 0.1, 1.0, 10.0)
    sweep_points: int = 25

    def field_spec(self):
        """The random conductivity field of the `field_*` keys."""
        return RandomFieldSpec(a0=self.field_a0, sigma=self.field_sigma,
                               L_c=self.field_lc, n_f=self.field_nf)

    def validate(self):
        # first, since NaN passes every range check below
        for f in fields(self):
            value = getattr(self, f.name)
            items = value if isinstance(value, tuple) else (value,)
            if not items:
                raise ConfigError(f"config key '{f.name}' needs at least one value")
            if any(isinstance(v, float) and not math.isfinite(v) for v in items):
                raise ConfigError(f"config key '{f.name}' must be finite")
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario '{self.scenario}'")
        if self.robin_mode not in ("optimized", "explicit"):
            raise ConfigError(f"unknown robin_mode '{self.robin_mode}'")
        if self.robin_mode == "explicit" and self.delta_d <= 0:
            raise ConfigError("explicit robin_mode requires delta_d > 0")
        if self.delta_s <= 0:
            raise ConfigError("delta_s must be positive")
        if self.tol <= 0 or self.max_iters < 1:
            raise ConfigError("tol must be positive and max_iters >= 1")
        # the meshes hold max(1, round(1/h)) cells per unit height, so a
        # larger h would be clamped there but not in the Robin band
        if any(not 0 < h <= 1 for h in self.h_list):
            raise ConfigError("mesh sizes must lie in (0, 1]")
        # these scenarios run on the first mesh size only
        if self.scenario in ("channel_mc", "symbol_sweep") and len(self.h_list) > 1:
            raise ConfigError(f"scenario '{self.scenario}' takes one h_list entry")
        if not self.out:
            raise ConfigError("out must name a directory")
        if self.J < 1 or self.J0 < 1 or any(J < 1 for J in self.J_list):
            raise ConfigError("sample counts must be >= 1")
        if any(k <= 0 for k in self.k_list):
            raise ConfigError("conductivities must be positive")
        if any(d <= 0 for d in self.sweep_delta_s):
            raise ConfigError("sweep_delta_s values must be positive")
        if self.sweep_points < 1:
            raise ConfigError("sweep_points must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.nu <= 0 or self.g <= 0 or self.alpha < 0:
            raise ConfigError("nu and g must be positive and alpha nonnegative")
        if self.field_scale <= 0:
            raise ConfigError("field_scale must be positive")
        try:
            self.field_spec()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        return self


def parse_config_text(text):
    """Parse the flat key = value grammar into a dict of raw strings."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key '{key}'")
        out[key] = value
    return out


def config_from_mapping(raw, base=None):
    """A validated config from raw key -> text values, each converted to the
    type of its key's default (a list key to the type of its entries)."""
    cfg = base or ScenarioConfig()
    defaults = {f.name: f.default for f in fields(ScenarioConfig)}
    updates = {}
    for key, value in raw.items():
        if key not in defaults:
            raise ConfigError(f"unknown config key '{key}'")
        default, text = defaults[key], str(value).strip()
        if isinstance(default, bool):    # before int: bool is a subclass of int
            if text.lower() not in ("true", "false"):
                raise ConfigError(f"boolean key '{key}' must be true or false")
            updates[key] = text.lower() == "true"
            continue
        try:
            if isinstance(default, tuple):
                conv = type(default[0])
                updates[key] = tuple(conv(v.strip()) for v in text.split(",") if v.strip())
            else:
                updates[key] = type(default)(text)
        except ValueError:
            raise ConfigError(f"config key '{key}': cannot convert '{value}'") from None
    return replace(cfg, **updates).validate()


def load_config(path, base=None):
    with open(path, "r", encoding="utf-8") as fh:
        return config_from_mapping(parse_config_text(fh.read()), base=base)


# --------------------------------------------------------------------------
# geometry and boundary-condition factories

MANUFACTURED_RECTS = (Rect(0.0, np.pi, 0.0, 1.0), Rect(0.0, np.pi, -1.0, 0.0))
CHANNEL_RECTS = (Rect(0.0, 3.0, 0.0, 1.0), Rect(0.0, 3.0, -3.0, 0.0))


def manufactured_meshes(h):
    """Benchmark meshes at nominal size h: n = round(1/h) rows per unit
    height and 2 n columns across the pi-wide domains (cells pi/(2n) wide,
    the resolution that reproduces the published error magnitudes)."""
    n = max(1, round(1 / h))
    rs, rd = MANUFACTURED_RECTS
    mesh_s = build_rect_mesh(rs, 2 * n, n, side_tags={"bottom": "INTERFACE"})
    mesh_d = build_rect_mesh(rd, 2 * n, n, side_tags={"top": "INTERFACE", "bottom": "BOTTOM",
                                                      "left": "SIDE", "right": "SIDE"})
    return mesh_s, mesh_d, pair_interface(mesh_s, mesh_d)


def channel_meshes(h):
    """Channel meshes with square cells of side 1/round(1/h)."""
    n = max(1, round(1 / h))
    rs, rd = CHANNEL_RECTS
    mesh_s = build_rect_mesh(rs, 3 * n, n, side_tags={"bottom": "INTERFACE",
                                                      "left": "INFLOW", "right": "OUTFLOW",
                                                      "top": "WALL"})
    mesh_d = build_rect_mesh(rd, 3 * n, 3 * n, side_tags={"top": "INTERFACE",
                                                          "bottom": "BOTTOM",
                                                          "left": "SIDE", "right": "SIDE"})
    return mesh_s, mesh_d, pair_interface(mesh_s, mesh_d)


def darcy_scan_points(mesh_d):
    bary, _ = DarcySpace.RULE     # the points where the set-up evaluates the lag weights
    return quadrature.physical_points(mesh_d.verts, mesh_d.tris, bary).reshape(-1, 2)


def manufactured_samples(cfg, mesh_d, k_list=None):
    """One closed-form sample per constant conductivity of `k_list`
    (default `cfg.k_list`), with the exact solutions."""
    scan = darcy_scan_points(mesh_d)
    samples, exacts = [], []
    for k in cfg.k_list if k_list is None else k_list:
        ms = ManufacturedSolution(k, k, nu=cfg.nu, g=cfg.g)
        K = ConstantConductivity(k)
        samples.append(make_sample(K, f_S=ms.f_S, f_D=ms.f_D, alpha=cfg.alpha,
                                   interface_y=0.0, scan_points=scan))
        exacts.append(ms)
    return samples, exacts


def manufactured_bc(exacts, pin_pressure=False):
    """Exact velocity as Dirichlet data on the outer free-flow sides; exact
    head as natural data on the outer porous sides (the natural condition of
    the mixed form, which also pins the head and pressure levels).

    `pin_pressure` adds the zero-mean pressure multiplier; useful in the
    small-conductivity regime, where the porous velocity response is too
    weak to carry the pressure level at a useful rate.
    """
    return BoundaryConditions(
        stokes_pressure_multiplier=pin_pressure,
        stokes_values=lambda j, pts: exacts[j].u_S(pts),
        darcy_essential_tags=frozenset(),
        darcy_natural_tags=frozenset({"BOTTOM", "SIDE"}),
        darcy_natural_head=lambda j, pts: exacts[j].phi_D(pts),
    )


def channel_inflow(points):
    pts = np.atleast_2d(points)
    out = np.zeros((len(pts), 2))
    out[:, 0] = 4.0 * pts[:, 1] * (1.0 - pts[:, 1])
    return out


def channel_bc():
    return BoundaryConditions(
        stokes_dirichlet_tags=frozenset({"INFLOW", "WALL"}),
        darcy_essential_tags=frozenset({"SIDE"}),
        stokes_values=lambda j, pts: channel_inflow(pts),
    )


def channel_samples(cfg, mesh_d, J=None):
    """The KL samples of the channel scenario (J draws, default `cfg.J`),
    with their draws and field spec.  A KL field varies in y only, so each
    sample's `k_min` is scanned at one point per distinct height of
    `darcy_scan_points` (102 heights for 3,456 points at h=1/8), which gives
    bitwise the minimum over all the points."""
    spec = cfg.field_spec()
    draws = draw_samples(spec, cfg.J if J is None else J, cfg.seed)
    heights = np.unique(darcy_scan_points(mesh_d)[:, 1])
    scan = np.column_stack([np.zeros_like(heights), heights])
    samples = []
    for d in draws:
        K = KLConductivity(spec, d, scale=cfg.field_scale)
        samples.append(make_sample(K, alpha=cfg.alpha, interface_y=0.0, scan_points=scan))
    return samples, draws, spec


def resolve_delta_d(cfg, interface_length, h):
    if cfg.robin_mode == "explicit":
        return cfg.delta_d
    band = frequency_band(interface_length, h)
    return optimized_delta_d(cfg.delta_s, cfg.nu, band)


def scenario_context(cfg, samples, delta_d):
    """The ensemble context of `samples` with the config's coefficients."""
    return make_context(samples, nu=cfg.nu, g=cfg.g, z=cfg.z, alpha=cfg.alpha,
                        delta_s=cfg.delta_s, delta_d=delta_d,
                        tol=cfg.tol, max_iters=cfg.max_iters)


def manufactured_case(cfg, h, k_list=None):
    """(mesh_s, mesh_d, pairing, ctx, bc, exacts) of a run on the benchmark
    geometry at mesh size h, one closed-form sample per conductivity of
    `k_list` (default `cfg.k_list`); the small_k scenario pins the Stokes
    pressure mean."""
    mesh_s, mesh_d, pairing = manufactured_meshes(h)
    samples, exacts = manufactured_samples(cfg, mesh_d, k_list)
    ctx, _ = scenario_context(cfg, samples, resolve_delta_d(cfg, pairing.length, h))
    bc = manufactured_bc(exacts, pin_pressure=(cfg.scenario == "small_k"))
    return mesh_s, mesh_d, pairing, ctx, bc, exacts


# --------------------------------------------------------------------------
# scenario runners


def _write_csv(path, columns, rows):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)
    return path


def _result_rows(cfg, h, report, exacts):
    seconds = dict(t_assemble_ms=report.t_assembly, t_factor_ms=report.t_factor,
                   t_solve_ms=report.t_solve, t_rhs_ms=report.t_rhs,
                   t_trisolve_ms=report.t_trisolve, t_trace_ms=report.t_trace,
                   t_norm_ms=report.t_norm)
    timers = {col: round(1e3 * t, 3) for col, t in seconds.items()}
    tables = error_rows(report.space_s, report.space_d, report.us.T, report.ud.T, exacts, h,
                        report.iterations)
    return [dict(scenario=cfg.scenario, **asdict(tab), **timers, lu_nnz=report.lu_nnz,
                 lag_ratio=float(report.lag_ratio[j]), converged=bool(report.converged[j]))
            for j, tab in enumerate(tables)]


def run_manufactured(cfg, iteration_log=None):
    """Error/iteration rows and the report of each h; one ensemble run per h."""
    rows = []
    reports = {}
    for h in cfg.h_list:
        mesh_s, mesh_d, pairing, ctx, bc, exacts = manufactured_case(cfg, h)
        report = run_ensemble_ddm(ctx, mesh_s, mesh_d, pairing, bc,
                                  per_sample_stop=cfg.per_sample_stop)
        rows.extend(_result_rows(cfg, h, report, exacts))
        reports[h] = report
        if iteration_log is not None:
            for j, hist in enumerate(report.norm_history):
                for it, norm in enumerate(hist, 1):
                    iteration_log.append(dict(scenario=cfg.scenario, h=repr(h), j=j,
                                              iter=it, stopping_norm=repr(norm)))
    return rows, reports


def mc_reference_key(cfg, delta_d):
    """Short hash of every input besides seed, mesh and J0 that changes the
    Monte Carlo reference, so a changed config never reuses a stale file."""
    inputs = (cfg.field_a0, cfg.field_sigma, cfg.field_lc, cfg.field_nf,
              cfg.field_scale, cfg.alpha, cfg.nu, cfg.g, cfg.z, cfg.delta_s,
              delta_d, cfg.tol, cfg.max_iters, cfg.per_sample_stop)
    return hashlib.sha256(repr(inputs).encode()).hexdigest()[:12]


def run_channel_mc(cfg):
    """Monte Carlo expectation study against a cached large-J reference; the
    reference path is None when its run did not converge: it is not cached."""
    h = cfg.h_list[0]
    mesh_s, mesh_d, pairing = channel_meshes(h)
    delta_d = resolve_delta_d(cfg, pairing.length, h)
    bc = channel_bc()

    def expectation(J):
        samples, draws, _ = channel_samples(cfg, mesh_d, J=J)
        ctx, _ = scenario_context(cfg, samples, delta_d)
        report = run_ensemble_ddm(ctx, mesh_s, mesh_d, pairing, bc,
                                  per_sample_stop=cfg.per_sample_stop)
        return report.us.mean(axis=0), report.ud.mean(axis=0), report, draws

    os.makedirs(cfg.out, exist_ok=True)
    n = max(1, round(1 / h))
    ref_path = os.path.join(cfg.out, f"mc_ref_seed{cfg.seed}_n{n}_J{cfg.J0}_"
                                     f"{mc_reference_key(cfg, delta_d)}.npz")
    if os.path.exists(ref_path):
        data = np.load(ref_path)
        ref_s, ref_d = data["eu_s"], data["eu_d"]
    else:
        ref_s, ref_d, report, _ = expectation(cfg.J0)
        if report.converged.all():
            np.savez(ref_path, eu_s=ref_s, eu_d=ref_d)
        else:
            ref_path = None

    mc_rows = []
    for J in cfg.J_list:
        eu_s, eu_d, report, draws = expectation(J)
        s, d = report.space_s, report.space_d
        err_s = np.sqrt(s.velocity_sq(eu_s - ref_s)) / np.sqrt(s.velocity_sq(ref_s))
        err_d = np.sqrt(d.velocity_sq(eu_d - ref_d)) / np.sqrt(d.velocity_sq(ref_d))
        mc_rows.append(dict(J=J, err_eu_s=float(err_s), err_eu_d=float(err_d),
                            converged=bool(report.converged.all())))
        if cfg.dump_draws:
            dump = os.path.join(cfg.out, f"draws_J{J}.csv")
            cols = ["j"] + [f"Y{i}" for i in range(2 * cfg.field_nf + 1)]
            _write_csv(dump, cols, [dict(j=j, **{f"Y{i}": y for i, y in enumerate(d.Y)})
                                    for j, d in enumerate(draws)])
    return mc_rows, ref_path


def run_timing_comparison(cfg, h, J):
    """Shared-matrix vs per-sample wall time on the benchmark geometry, set
    up as the scenario's own runs are."""
    # constant conductivities k_j = k(0; Y_j) with their closed-form solutions
    spec = cfg.field_spec()
    k_list = [float(evaluate_k(spec, d, 0.0)) * cfg.field_scale
              for d in draw_samples(spec, J, cfg.seed)]
    mesh_s, mesh_d, pairing, ctx, bc, _ = manufactured_case(cfg, h, k_list)
    t0 = time.perf_counter()
    rep_e = run_ensemble_ddm(ctx, mesh_s, mesh_d, pairing, bc)
    t_ens = time.perf_counter() - t0
    t0 = time.perf_counter()
    rep_t = run_traditional_ddm(ctx, mesh_s, mesh_d, pairing, bc)
    t_trad = time.perf_counter() - t0
    return dict(J=J, h=repr(h), t_ensemble_s=t_ens, t_traditional_s=t_trad,
                speedup=t_trad / t_ens,
                nfact_ensemble=rep_e.n_factorizations,
                nfact_traditional=rep_t.n_factorizations,
                lu_nnz_ensemble=rep_e.lu_nnz, lu_nnz_traditional=rep_t.lu_nnz), rep_e, rep_t, ctx


def run_symbol_sweep(cfg):
    """rho_max over a (delta_s, delta_d) grid around the optimizer."""
    band = frequency_band(np.pi, cfg.h_list[0])
    rows = []
    for ds in cfg.sweep_delta_s:
        dstar = optimized_delta_d(ds, cfg.nu, band)
        grid = np.linspace(0.5 * dstar, 2.0 * dstar, cfg.sweep_points)
        grid = np.sort(np.append(grid, dstar))
        for dd in grid:
            rows.append(dict(delta_s=ds, delta_d=dd, m_min=band.m_min,
                             m_max=band.m_max,
                             rho_max=worst_case_rho(ds, dd, cfg.nu, band)))
    return rows


def run_symbol_validation(cfg):
    """Measured two-step contraction of the interface recursion vs the
    closed-form factor, over SYMBOL_CASES seeded random parameter tuples."""
    rng = np.random.default_rng(cfg.seed)
    rows = []
    for case in range(SYMBOL_CASES):
        delta_s = float(rng.uniform(0.05, 5.0))
        delta_d = float(rng.uniform(0.05, 5.0))
        nu = float(rng.uniform(0.2, 3.0))
        m = float(rng.uniform(0.3, 20.0))
        k_bar = float(rng.uniform(0.2, 5.0))
        k_j_inv = k_bar * float(rng.uniform(0.5, 1.5))
        rho = convergence_factor(delta_s, delta_d, nu, m)
        cs = symbol_iteration(delta_s, delta_d, nu, k_bar, k_j_inv, m, n_steps=16)
        ratios = measured_contraction(cs)
        measured = ratios[-1]
        rows.append(dict(case=case, delta_s=delta_s, delta_d=delta_d, nu=nu, m=m,
                         k_bar=k_bar, k_j_inv=k_j_inv, predicted_rho=rho,
                         measured_ratio=measured, abs_diff=abs(measured - rho)))
    return rows


def run_scenario(config):
    """Dispatch a validated ScenarioConfig; returns the list of files written."""
    cfg = config.validate()
    os.makedirs(cfg.out, exist_ok=True)
    written = []
    failed = []                 # the runs that did not converge
    if cfg.scenario in ("manufactured", "small_k"):
        itlog = []
        rows, reports = run_manufactured(cfg, iteration_log=itlog)
        written.append(_write_csv(os.path.join(cfg.out, f"{cfg.scenario}.csv"),
                                  CSV_COLUMNS, rows))
        written.append(_write_csv(os.path.join(cfg.out, f"{cfg.scenario}_iterations.csv"),
                                  ["scenario", "h", "j", "iter", "stopping_norm"], itlog))
        failed += [f"the {cfg.scenario} run at h = {h}" for h, rep in reports.items()
                   if not rep.converged.all()]
        if cfg.compare_traditional:
            trow, rep_e, rep_t, _ = run_timing_comparison(cfg, cfg.h_list[0], cfg.J)
            written.append(_write_csv(os.path.join(cfg.out, "timing.csv"),
                                      list(trow.keys()), [trow]))
            if not (rep_e.converged.all() and rep_t.converged.all()):
                failed.append("the compare_traditional timing runs")
    elif cfg.scenario == "channel_mc":
        mc_rows, ref_path = run_channel_mc(cfg)
        written.append(_write_csv(os.path.join(cfg.out, "mc_convergence.csv"),
                                  ["J", "err_eu_s", "err_eu_d", "converged"], mc_rows))
        if ref_path is None:
            failed.append(f"the J0 = {cfg.J0} Monte Carlo reference")
        else:
            written.append(ref_path)
        failed += [f"the J = {r['J']} Monte Carlo run" for r in mc_rows if not r["converged"]]
    elif cfg.scenario == "symbol_sweep":
        rows = run_symbol_sweep(cfg)
        written.append(_write_csv(os.path.join(cfg.out, "rho_sweep.csv"),
                                  ["delta_s", "delta_d", "m_min", "m_max", "rho_max"],
                                  rows))
    if failed and not cfg.allow_nonconverged:
        raise RuntimeError(f"{', '.join(failed)} did not converge "
                           "(set allow_nonconverged = true to accept)")
    return written


# --------------------------------------------------------------------------
# command line


_SUBCOMMAND_DEFAULTS = {
    "converge": ScenarioConfig(scenario="manufactured"),
    "small-k": ScenarioConfig(scenario="small_k",
                              k_list=(1e-4, 2e-4, 3e-4), field_scale=1e-4,
                              robin_mode="explicit", delta_s=100.0, delta_d=50.0,
                              tol=1e-9, h_list=(1 / 8, 1 / 16, 1 / 32)),
    "mc": ScenarioConfig(scenario="channel_mc", h_list=(1 / 32,)),
    "sweep": ScenarioConfig(scenario="symbol_sweep", h_list=(1 / 32,)),
    "symbol": ScenarioConfig(scenario="symbol_sweep", h_list=(1 / 32,)),
}


def main(argv=None):
    parser = argparse.ArgumentParser(prog="ensddm",
                                     description="Stokes-Darcy ensemble DDM benchmarks")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in [("converge", "benchmark convergence study"),
                           ("small-k", "small-conductivity study"),
                           ("mc", "channel Monte Carlo study"),
                           ("sweep", "Robin-parameter damping-factor sweep"),
                           ("symbol", "interface-recursion contraction check")]:
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--out", help="output directory")
        p.add_argument("--seed", type=int, help="random seed")
    args = parser.parse_args(argv)

    cfg = _SUBCOMMAND_DEFAULTS[args.command]
    overrides = {}
    if args.out:
        overrides["out"] = args.out
    if args.seed is not None:
        overrides["seed"] = args.seed
    try:
        if args.config:
            cfg = load_config(args.config, base=cfg)
        if overrides:
            cfg = replace(cfg, **overrides).validate()
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "symbol":
            os.makedirs(cfg.out, exist_ok=True)
            rows = run_symbol_validation(cfg)
            path = _write_csv(os.path.join(cfg.out, "symbol_contraction.csv"),
                              list(rows[0].keys()), rows)
            written = [path]
            worst = max(r["abs_diff"] for r in rows)
            print(f"max |measured - predicted| = {worst:.3e}")
            if worst > 1e-8:
                return 1
        else:
            written = run_scenario(cfg)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
