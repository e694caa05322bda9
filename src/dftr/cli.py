"""Command-line front end.

Subcommands: steady, simulate, sweep, verify. Configuration is an INI file
with sections [reactor], [control], [grid], [time], [analysis]; outputs are
byte-deterministic CSV files. Every CSV starts with exactly one comment
line carrying the run-manifest hash, then the header row; floats are
serialized with 17 significant digits and '\\n' newlines, so identical
manifests reproduce identical bytes.

Exit codes: 0 success, 2 config error, 3 steady-state failure,
4 integration failure, 5 sweep total failure, 6 verification failure.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .analysis import settings_hash, sweep, weight_profile
from .errors import (ConfigError, DftrError, EstimationError, IntegrationError,
                     ParameterError, SolverError)
from .integrator import SimulationConfig, simulate
from .model import (FeedbackLaw, Profile, ReactorParams, SpatialGrid,
                    d_ax_from_peclet, default_saturation_bound, initial_profile,
                    lambda_theoretical)
from .operator import (build_generator, dissipativity_form, duhamel_oracle,
                       inner_product, random_bc_compatible, resolvent_analytic,
                       resolvent_discrete)
from .steady_state import steady_state_analytic_n1, steady_state_numeric

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_STEADY = 3
EXIT_INTEGRATION = 4
EXIT_SWEEP = 5
EXIT_VERIFY = 6

DEFAULT_SNAPSHOTS = (0.0, 100.0, 200.0, 300.0)
DEFAULT_N_LIST = (0.5, 1.0, 2.0, 10.0)
DEFAULT_ALPHA_LIST = (0.0, 0.25, 0.5)

# section -> (required keys, optional keys)
_SCHEMA = {
    "reactor": ({"v", "k", "n", "l"}, {"d_ax", "peclet", "sat_m"}),
    "control": (set(), {"alpha", "u_bar"}),
    "grid": (set(), {"num_nodes"}),
    "time": (set(), {"t_final", "dt", "record_every", "horizon"}),
    "analysis": (set(), {"rho0", "gamma", "window_fraction", "floor"}),
}


@dataclass(frozen=True)
class ResolvedConfig:
    """A config document with every default materialized.

    dt stays None when the file omits it; each command applies its own
    default (0.1 s for simulate/steady-horizon work, 1 s for sweeps).
    sat_m stays None when omitted so sweep cells can apply the per-alpha
    default.
    """

    d_ax: float
    v: float
    k: float
    n: float
    l: float
    sat_m: float | None
    alpha: float
    u_bar: float
    num_nodes: int
    t_final: float
    dt: float | None
    record_every: int
    horizon: float
    rho0: float
    gamma: float
    window_fraction: float
    floor: float | None

    def reactor_params(self, t_final: float, alpha: float | None = None) -> ReactorParams:
        a = self.alpha if alpha is None else alpha
        sat = self.sat_m
        if sat is None:
            sat = default_saturation_bound(self.d_ax, self.v, self.l, a)
        return ReactorParams(d_ax=self.d_ax, v=self.v, k=self.k, n=self.n,
                             l=self.l, t_final=t_final, sat_m=sat)

    def law(self) -> FeedbackLaw:
        return FeedbackLaw(alpha=self.alpha, u_bar=self.u_bar)

    def grid(self) -> SpatialGrid:
        return SpatialGrid(l=self.l, num_nodes=self.num_nodes)

    def weight(self, grid: SpatialGrid):
        return weight_profile(grid, self.rho0, self.gamma)

    def as_dict(self) -> dict:
        return {
            "d_ax": self.d_ax, "v": self.v, "k": self.k, "n": self.n,
            "l": self.l, "sat_m": self.sat_m, "alpha": self.alpha,
            "u_bar": self.u_bar, "num_nodes": self.num_nodes,
            "t_final": self.t_final, "dt": self.dt,
            "record_every": self.record_every, "horizon": self.horizon,
            "rho0": self.rho0, "gamma": self.gamma,
            "window_fraction": self.window_fraction, "floor": self.floor,
        }


def _parse_number(section: str, key: str, raw: str) -> float:
    try:
        val = float(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: not a decimal number: {raw!r}")
    if not math.isfinite(val):
        raise ConfigError(f"[{section}] {key}: value must be finite, got {raw!r}")
    return val


def _parse_int(section: str, key: str, raw: str) -> int:
    val = _parse_number(section, key, raw)
    if val != int(val):
        raise ConfigError(f"[{section}] {key}: expected an integer, got {raw!r}")
    return int(val)


def load_config(path: str) -> ResolvedConfig:
    """Read and validate an INI config, materializing all defaults."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path}: {exc}")

    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        required, optional = _SCHEMA[section]
        for key in parser[section]:
            if key not in required | optional:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")

    def get(section, key):
        if parser.has_section(section) and key in parser[section]:
            return parser[section][key]
        return None

    for key in ("v", "k", "n", "l"):
        if get("reactor", key) is None:
            raise ConfigError(f"missing required key {key!r} in section [reactor]")

    v = _parse_number("reactor", "v", get("reactor", "v"))
    k = _parse_number("reactor", "k", get("reactor", "k"))
    n = _parse_number("reactor", "n", get("reactor", "n"))
    l = _parse_number("reactor", "l", get("reactor", "l"))

    d_ax_raw, pe_raw = get("reactor", "d_ax"), get("reactor", "peclet")
    if (d_ax_raw is None) == (pe_raw is None):
        raise ConfigError("exactly one of 'd_ax' or 'peclet' must be set in [reactor]")
    if d_ax_raw is not None:
        d_ax = _parse_number("reactor", "d_ax", d_ax_raw)
    else:
        try:
            d_ax = d_ax_from_peclet(v, l, _parse_number("reactor", "peclet", pe_raw))
        except ParameterError as exc:
            raise ConfigError(str(exc))

    sat_raw = get("reactor", "sat_m")
    sat_m = None if sat_raw is None else _parse_number("reactor", "sat_m", sat_raw)

    alpha_raw = get("control", "alpha")
    alpha = 0.0 if alpha_raw is None else _parse_number("control", "alpha", alpha_raw)
    ubar_raw = get("control", "u_bar")
    u_bar = 1.0 if ubar_raw is None else _parse_number("control", "u_bar", ubar_raw)

    nodes_raw = get("grid", "num_nodes")
    num_nodes = 201 if nodes_raw is None else _parse_int("grid", "num_nodes", nodes_raw)

    tf_raw = get("time", "t_final")
    t_final = 400.0 if tf_raw is None else _parse_number("time", "t_final", tf_raw)
    dt_raw = get("time", "dt")
    dt = None if dt_raw is None else _parse_number("time", "dt", dt_raw)
    re_raw = get("time", "record_every")
    record_every = 1 if re_raw is None else _parse_int("time", "record_every", re_raw)
    hz_raw = get("time", "horizon")
    horizon = 7000.0 if hz_raw is None else _parse_number("time", "horizon", hz_raw)

    rho0_raw = get("analysis", "rho0")
    rho0 = 1.0 if rho0_raw is None else _parse_number("analysis", "rho0", rho0_raw)
    gamma_raw = get("analysis", "gamma")
    gamma = (v / (2.0 * d_ax) if gamma_raw is None
             else _parse_number("analysis", "gamma", gamma_raw))
    wf_raw = get("analysis", "window_fraction")
    window_fraction = 0.5 if wf_raw is None else _parse_number(
        "analysis", "window_fraction", wf_raw)
    floor_raw = get("analysis", "floor")
    floor = None if floor_raw is None else _parse_number("analysis", "floor", floor_raw)

    cfg = ResolvedConfig(d_ax=d_ax, v=v, k=k, n=n, l=l, sat_m=sat_m, alpha=alpha,
                         u_bar=u_bar, num_nodes=num_nodes, t_final=t_final, dt=dt,
                         record_every=record_every, horizon=horizon, rho0=rho0,
                         gamma=gamma, window_fraction=window_fraction, floor=floor)
    # fail fast on out-of-domain values with the config exit code
    try:
        cfg.reactor_params(t_final=max(t_final, 0.0))
        cfg.law()
        cfg.grid()
        cfg.weight(cfg.grid())
    except ParameterError as exc:
        raise ConfigError(str(exc))
    return cfg


@dataclass
class RunManifest:
    """Provenance record for one CLI invocation.

    The hash covers the semantic inputs only (command, toolkit version,
    resolved settings, list/seed arguments); wall-clock timings and the
    output directory are recorded in manifest.json but excluded from the
    hash so re-runs elsewhere reproduce identical CSV bytes.
    """

    config_path: str
    command: str
    out_dir: str
    resolved: dict
    timings: dict

    @property
    def hash(self) -> str:
        return settings_hash({"command": self.command, "version": __version__,
                              "settings": self.resolved})

    def write(self, path) -> None:
        doc = {"config_path": self.config_path, "command": self.command,
               "version": __version__, "out_dir": str(self.out_dir),
               "hash": self.hash, "settings": self.resolved,
               "timings": self.timings}
        with open(path, "w", newline="\n") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def write_csv(path, manifest_hash: str, header, rows) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(f"# manifest_hash={manifest_hash}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(cell) for cell in row) + "\n")


def cmd_steady(cfg: ResolvedConfig, out_dir, manifest: RunManifest) -> int:
    grid = cfg.grid()
    params = cfg.reactor_params(t_final=cfg.t_final)
    solution = steady_state_numeric(params, cfg.u_bar, grid)
    x = grid.nodes
    write_csv(out_dir / "steady.csv", manifest.hash, ("x", "c_bar"),
              zip(x, solution.profile.values))
    print(f"steady state solved: {solution.iterations} Newton iterations, "
          f"residual {solution.residual_norm:.3e}")
    if abs(cfg.n - 1.0) <= 1e-12:
        analytic = steady_state_analytic_n1(params, cfg.u_bar)
        ana_vals = analytic.evaluate(x)
        write_csv(out_dir / "steady_analytic.csv", manifest.hash, ("x", "c_bar"),
                  zip(x, ana_vals))
        rel = float(np.max(np.abs(solution.profile.values - ana_vals))
                    / np.max(np.abs(ana_vals)))
        print(f"max relative discrepancy vs analytic: {_fmt(rel)}")
    return EXIT_OK


def _run_simulation(cfg: ResolvedConfig, t_final: float, dt: float):
    grid = cfg.grid()
    params = cfg.reactor_params(t_final=t_final)
    law = cfg.law()
    steady = steady_state_numeric(params, cfg.u_bar, grid)
    config = SimulationConfig(params=params, law=law, grid=grid, dt=dt,
                              record_every=cfg.record_every)
    w0 = initial_profile(grid, params, law)
    return config, steady, simulate(config, steady, w0)


def cmd_simulate(cfg: ResolvedConfig, out_dir, manifest: RunManifest,
                 snapshots) -> int:
    dt = cfg.dt if cfg.dt is not None else 0.1
    _, _, traj = _run_simulation(cfg, cfg.t_final, dt)
    grid = traj.grid
    x = grid.nodes

    def trajectory_rows():
        for j, t in enumerate(traj.times):
            for i in range(grid.num_nodes):
                yield (t, x[i], traj.states[j, i])

    write_csv(out_dir / "trajectory.csv", manifest.hash, ("t", "x", "w"),
              trajectory_rows())
    write_csv(out_dir / "control.csv", manifest.hash, ("t", "u_w"),
              zip(traj.times, traj.control))

    weight = cfg.weight(grid)
    quad = grid.quad_weights
    energies = 0.5 * np.sum(quad * weight.profile.values * traj.states ** 2, axis=1)
    norms = np.sqrt(2.0 * energies)
    write_csv(out_dir / "energy.csv", manifest.hash, ("t", "energy", "norm_rho"),
              zip(traj.times, energies, norms))

    snap_indices = []
    for t_snap in snapshots:
        idx = int(np.argmin(np.abs(traj.times - t_snap)))
        if idx not in snap_indices:
            snap_indices.append(idx)

    def profile_rows():
        for j in snap_indices:
            for i in range(grid.num_nodes):
                yield (traj.times[j], x[i], traj.states[j, i])

    write_csv(out_dir / "profiles.csv", manifest.hash, ("t", "x", "w"),
              profile_rows())
    print(f"simulated {traj.times[-1]:g} s in {len(traj.times)} records "
          f"(substeps {traj.substeps}, negativity events {traj.negativity_events})")
    return EXIT_OK


def cmd_sweep(cfg: ResolvedConfig, out_dir, manifest: RunManifest,
              n_list, alpha_list) -> int:
    if not n_list or not alpha_list:
        raise ConfigError("n-list and alpha-list must be non-empty")
    for a in alpha_list:
        if not 0.0 <= a <= 0.5:
            raise ConfigError(f"alpha {a} outside [0, 1/2]")
    for n in n_list:
        if n <= 0:
            raise ConfigError(f"reaction order {n} must be > 0")

    dt = cfg.dt if cfg.dt is not None else 1.0
    grid = cfg.grid()
    params = cfg.reactor_params(t_final=cfg.horizon)
    base = SimulationConfig(params=params, law=cfg.law(), grid=grid, dt=dt,
                            record_every=cfg.record_every)
    result = sweep(base, n_list, alpha_list, sat_m=cfg.sat_m,
                   weight=cfg.weight(grid),
                   window_fraction=cfg.window_fraction, floor=cfg.floor)

    lam_t = lambda_theoretical(params)
    rows = []
    failures = 0
    for n in result.n_values:
        for a in result.alpha_values:
            cell = result.cell(n, a)
            est = cell.estimate
            if est is None or est.lambda_n is None:
                failures += 1
                rows.append((n, a, None, lam_t,
                             None if est is None else est.fit_r2,
                             False if est is None else est.floor_hit))
            else:
                rows.append((n, a, est.lambda_n, lam_t, est.fit_r2, est.floor_hit))
    write_csv(out_dir / "sweep.csv", manifest.hash,
              ("n", "alpha", "lambda_n", "lambda_t", "fit_r2", "floor_hit"), rows)

    header = "n\\alpha" + "".join(f"{a:>12g}" for a in result.alpha_values)
    print(header)
    for i, n in enumerate(result.n_values):
        cells = []
        for a in result.alpha_values:
            est = result.cell(n, a).estimate
            if est is None or est.lambda_n is None:
                cells.append(f"{'-':>12}")
            else:
                cells.append(f"{est.lambda_n:>12.4f}")
        print(f"{n:<7g}" + "".join(cells))
    for (n, a), cell in sorted(result.cells.items()):
        if cell.error is not None:
            print(f"cell (n={n:g}, alpha={a:g}) failed: {cell.error}",
                  file=sys.stderr)

    if failures == len(rows):
        print("all sweep cells failed", file=sys.stderr)
        return EXIT_SWEEP
    return EXIT_OK


def _verify_checks(cfg: ResolvedConfig, seed: int):
    """Run the oracle suite; yields (check, metric, value, threshold, pass).

    A check that raises a toolkit error is reported as a failed row (with
    the error on stderr) so the report is always complete.
    """
    grid = cfg.grid()
    params = cfg.reactor_params(t_final=cfg.t_final)

    def guarded(expected_rows, fn):
        # expected_rows: [(check_name, threshold), ...] matching fn's yield
        try:
            return fn()
        except DftrError as exc:
            print(f"check {expected_rows[0][0]} errored: {exc}", file=sys.stderr)
            return [(name, "error", None, threshold, False)
                    for name, threshold in expected_rows]

    def check_dissipativity():
        rng = np.random.default_rng(seed)
        worst = -np.inf
        for alpha in (0.0, 0.25, 0.5):
            gen = build_generator(grid, params, alpha)
            for _ in range(100):
                xi = random_bc_compatible(gen, rng)
                form = dissipativity_form(gen, xi).form
                norm2 = inner_product(grid, xi.values, xi.values)
                worst = max(worst, form / norm2)
        return [("dissipativity", "max_form_over_norm2", worst, 1e-8,
                 worst <= 1e-8)]

    def check_resolvent():
        base = grid.num_nodes - 1
        if base % 4 != 0 or base // 4 + 1 < 11:
            return [("resolvent_error", "skipped_insufficient_resolution", None,
                     1e-3, "skipped"),
                    ("resolvent_order", "skipped_insufficient_resolution", None,
                     "2.0+-0.3", "skipped")]
        levels = [base // 4 + 1, base // 2 + 1, base + 1]
        errors = {lam: [] for lam in (0.1, 1.0, 10.0)}
        for m in levels:
            g = SpatialGrid(l=cfg.l, num_nodes=m)
            eta = Profile(g, np.ones(m))
            for lam in errors:
                gen = build_generator(g, params, cfg.alpha)
                xi_d = resolvent_discrete(gen, eta, lam).values
                xi_a = resolvent_analytic(eta, lam, params, cfg.alpha).xi.values
                num = np.sqrt(inner_product(g, xi_d - xi_a, xi_d - xi_a))
                den = np.sqrt(inner_product(g, xi_a, xi_a))
                errors[lam].append(num / den)
        max_err = max(errs[-1] for errs in errors.values())
        min_order = min(0.5 * (math.log2(errs[0] / errs[1])
                               + math.log2(errs[1] / errs[2]))
                        for errs in errors.values())
        return [("resolvent_error", "max_rel_l2", max_err, 1e-3, max_err <= 1e-3),
                ("resolvent_order", "observed_order", min_order, "2.0+-0.3",
                 1.7 <= min_order <= 2.3)]

    def check_duhamel(label, k_val, tol):
        def run():
            g_small = (grid if grid.num_nodes <= 101
                       else SpatialGrid(l=cfg.l, num_nodes=51))
            p = replace(params, k=k_val, t_final=50.0)
            steady = steady_state_numeric(p, cfg.u_bar, g_small)
            law = cfg.law()
            w0 = initial_profile(g_small, p, law)
            gen = build_generator(g_small, p, law.alpha)
            oracle = duhamel_oracle(gen, w0, steady, p, t_final=50.0,
                                    num_steps=500)
            traj = simulate(SimulationConfig(params=p, law=law, grid=g_small,
                                             dt=0.1), steady, w0)
            diff = traj.states[-1] - oracle.values
            rel = (np.sqrt(inner_product(g_small, diff, diff))
                   / np.sqrt(inner_product(g_small, oracle.values, oracle.values)))
            return [(label, "rel_l2", rel, tol, rel <= tol)]
        return run

    def check_equilibrium():
        dt_sim = cfg.dt if cfg.dt is not None else 0.1
        steady = steady_state_numeric(params, cfg.u_bar, grid)
        sim_cfg = SimulationConfig(params=params, law=cfg.law(), grid=grid,
                                   dt=dt_sim, record_every=cfg.record_every)
        traj = simulate(sim_cfg, steady, Profile(grid, np.zeros(grid.num_nodes)))
        max_w = float(np.max(np.abs(traj.states)))
        return [("equilibrium", "max_w_inf", max_w, 1e-9, max_w <= 1e-9)]

    def check_envelope():
        dt_long = cfg.dt if cfg.dt is not None else 1.0
        p_long = replace(params, t_final=cfg.horizon)
        steady = steady_state_numeric(p_long, cfg.u_bar, grid)
        sim_cfg = SimulationConfig(params=p_long, law=cfg.law(), grid=grid,
                                   dt=dt_long, record_every=cfg.record_every)
        w0 = initial_profile(grid, p_long, cfg.law())
        traj = simulate(sim_cfg, steady, w0)
        norms = np.sqrt(2.0 * traj.energy)
        lam_t = lambda_theoretical(params)
        ratio = float(np.max(norms / (norms[0] * np.exp(-lam_t * traj.times))))
        return [("envelope", "max_norm_over_bound", ratio, 1.01, ratio <= 1.01)]

    yield from guarded([("dissipativity", 1e-8)], check_dissipativity)
    yield from guarded([("resolvent_error", 1e-3),
                        ("resolvent_order", "2.0+-0.3")], check_resolvent)
    yield from guarded([("duhamel_nonlinear", 1e-2)],
                       check_duhamel("duhamel_nonlinear", cfg.k, 1e-2))
    yield from guarded([("duhamel_linear", 1e-4)],
                       check_duhamel("duhamel_linear", 0.0, 1e-4))
    yield from guarded([("equilibrium", 1e-9)], check_equilibrium)
    yield from guarded([("envelope", 1.01)], check_envelope)


def cmd_verify(cfg: ResolvedConfig, out_dir, manifest: RunManifest, seed: int) -> int:
    rows = []
    failed = False
    for check, metric, value, threshold, status in _verify_checks(cfg, seed):
        rows.append((check, metric, value, threshold, status))
        if status is False:
            failed = True
        mark = status if isinstance(status, str) else ("pass" if status else "FAIL")
        print(f"{check:<20} {metric:<32} {_fmt(value):<24} {mark}")
    write_csv(out_dir / "verify.csv", manifest.hash,
              ("check", "metric", "value", "threshold", "pass"), rows)
    return EXIT_VERIFY if failed else EXIT_OK


def _parse_float_list(raw: str, flag: str):
    try:
        values = tuple(float(tok) for tok in raw.split(",") if tok.strip() != "")
    except ValueError:
        raise ConfigError(f"{flag} must be a comma-separated list of numbers, got {raw!r}")
    if not values:
        raise ConfigError(f"{flag} must be non-empty")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dftr",
        description="Tubular-reactor simulation and stability analysis")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="path to the INI config file")
        p.add_argument("--out", default=".", help="output directory (default: cwd)")

    add_common(sub.add_parser("steady", help="solve the steady-state profile"))

    p_sim = sub.add_parser("simulate", help="integrate the closed-loop deviation")
    add_common(p_sim)
    p_sim.add_argument("--snapshots", default="0,100,200,300",
                       help="comma-separated profile snapshot times in seconds")

    p_sweep = sub.add_parser("sweep", help="decay-rate table over (n, alpha)")
    add_common(p_sweep)
    p_sweep.add_argument("--n-list", default="0.5,1,2,10",
                         help="comma-separated reaction orders")
    p_sweep.add_argument("--alpha-list", default="0,0.25,0.5",
                         help="comma-separated feedback gains")

    p_verify = sub.add_parser("verify", help="run the oracle verification suite")
    add_common(p_verify)
    p_verify.add_argument("--seed", type=int, default=0,
                          help="seed for the randomized dissipativity vectors")
    return parser


def main(argv=None) -> int:
    from pathlib import Path

    args = build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        cfg = load_config(args.config)
        resolved = cfg.as_dict()
        extra = {}
        if args.command == "simulate":
            extra["snapshots"] = list(_parse_float_list(args.snapshots, "--snapshots"))
        elif args.command == "sweep":
            extra["n_list"] = list(_parse_float_list(args.n_list, "--n-list"))
            extra["alpha_list"] = list(_parse_float_list(args.alpha_list, "--alpha-list"))
        elif args.command == "verify":
            extra["seed"] = int(args.seed)
        resolved.update(extra)

        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        manifest = RunManifest(config_path=str(args.config), command=args.command,
                               out_dir=str(out_dir), resolved=resolved, timings={})

        if args.command == "steady":
            code = cmd_steady(cfg, out_dir, manifest)
        elif args.command == "simulate":
            code = cmd_simulate(cfg, out_dir, manifest,
                                tuple(extra["snapshots"]))
        elif args.command == "sweep":
            code = cmd_sweep(cfg, out_dir, manifest,
                             tuple(extra["n_list"]), tuple(extra["alpha_list"]))
        else:
            code = cmd_verify(cfg, out_dir, manifest, extra["seed"])

        manifest.timings["total_s"] = time.monotonic() - started
        manifest.write(out_dir / "manifest.json")
        return code
    except (ConfigError, ParameterError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverError as exc:
        print(f"steady-state failure: {exc} (residual {exc.residual}, "
              f"iterations {exc.iterations})", file=sys.stderr)
        return EXIT_STEADY
    except IntegrationError as exc:
        print(f"integration failure: {exc}", file=sys.stderr)
        return EXIT_INTEGRATION
    except EstimationError as exc:
        print(f"estimation failure: {exc}", file=sys.stderr)
        return EXIT_SWEEP
    except DftrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
