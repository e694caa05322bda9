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
import contextlib
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import __version__, operator
from .analysis import (DEFAULT_WINDOW_FRACTION, check_floor, check_window_fraction,
                       default_weight, energy, settings_hash, sweep)
from .errors import ConfigError, DftrError, IntegrationError, ParameterError, SolverError
from .integrator import SimulationConfig, closed_loop, simulate
from .model import (FeedbackLaw, ReactorParams, SpatialGrid, d_ax_from_peclet,
                    default_saturation_bound, lambda_theoretical)
from .steady_state import steady_state_analytic_n1, steady_state_numeric

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_STEADY = 3
EXIT_INTEGRATION = 4
EXIT_SWEEP = 5
EXIT_VERIFY = 6

_REQUIRED = object()  # default of a key the file must set

# section -> key -> (type, default); load_config derives d_ax from peclet when None
_KEYS = {
    "reactor": {"v": (float, _REQUIRED), "k": (float, _REQUIRED),
                "n": (float, _REQUIRED), "l": (float, _REQUIRED),
                "d_ax": (float, None), "peclet": (float, None),
                "sat_m": (float, None)},
    "control": {"alpha": (float, 0.0), "u_bar": (float, 1.0)},
    "grid": {"num_nodes": (int, 201)},
    "time": {"t_final": (float, 400.0), "dt": (float, None),
             "record_every": (int, 1), "horizon": (float, 7000.0)},
    "analysis": {"window_fraction": (float, DEFAULT_WINDOW_FRACTION),
                 "floor": (float, None)},
}


@dataclass(frozen=True)
class ResolvedConfig:
    """A config document with every default materialized.

    dt stays None when the file omits it, and run() applies its default.
    sat_m stays None when omitted, and reactor_params() applies the per-alpha
    default, so each sweep cell replace(cfg, n=n, alpha=a) gets its own.
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
    window_fraction: float
    floor: float | None

    def reactor_params(self, t_final: float) -> ReactorParams:
        sat = self.sat_m if self.sat_m is not None else default_saturation_bound(
            self.d_ax, self.v, self.l, self.alpha)
        return ReactorParams(d_ax=self.d_ax, v=self.v, k=self.k, n=self.n,
                             l=self.l, t_final=t_final, sat_m=sat)

    def law(self) -> FeedbackLaw:
        return FeedbackLaw(alpha=self.alpha, u_bar=self.u_bar)

    def grid(self) -> SpatialGrid:
        return SpatialGrid(l=self.l, num_nodes=self.num_nodes)

    def run(self, to_horizon: bool = False) -> SimulationConfig:
        """The closed-loop run to t_final at dt or else 0.1 s; with to_horizon, the
        decay run to the horizon at dt or else 1 s."""
        t_final, dt = (self.horizon, 1.0) if to_horizon else (self.t_final, 0.1)
        # alpha is checked before the per-alpha sat_m default needs it
        return SimulationConfig(law=self.law(), params=self.reactor_params(t_final=t_final),
                                grid=self.grid(), dt=dt if self.dt is None else self.dt,
                                record_every=self.record_every)


def _parse(section: str, key: str, kind: type, raw: str):
    if kind is int:
        try:  # an integer literal exactly, past 2**53 too; other spellings, as 1e3, below
            return int(raw)
        except ValueError:
            pass
    try:
        val = float(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: not a decimal number: {raw!r}")
    if not math.isfinite(val):
        raise ConfigError(f"[{section}] {key}: value must be finite, got {raw!r}")
    if kind is int:
        if val != int(val):
            raise ConfigError(f"[{section}] {key}: expected an integer, got {raw!r}")
        return int(val)
    return val


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
        if section not in _KEYS:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser[section]:
            if key not in _KEYS[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")

    values = {}
    for section, keys in _KEYS.items():
        for key, (kind, default) in keys.items():
            raw = parser.get(section, key, fallback=None)
            if raw is not None:
                values[key] = _parse(section, key, kind, raw)
            elif default is _REQUIRED:
                raise ConfigError(f"missing required key {key!r} in section [{section}]")
            else:
                values[key] = default

    peclet = values.pop("peclet")
    if (values["d_ax"] is None) == (peclet is None):
        raise ConfigError("exactly one of 'd_ax' or 'peclet' must be set in [reactor]")
    try:
        if peclet is not None:
            values["d_ax"] = d_ax_from_peclet(values["v"], values["l"], peclet)
        cfg = ResolvedConfig(**values)
        # fail fast on out-of-domain values with the config exit code
        params = cfg.reactor_params(t_final=max(cfg.t_final, 0.0))
        cfg.law()
        try:
            default_weight(cfg.grid(), params)
        except MemoryError:
            raise ConfigError(f"num_nodes = {cfg.num_nodes}: no memory for the grid and its weight")
        check_window_fraction(cfg.window_fraction)
        check_floor(cfg.floor)
    except ParameterError as exc:
        raise ConfigError(str(exc))
    return cfg


@dataclass
class RunManifest:
    """Provenance record for one CLI invocation.

    The hash covers the semantic inputs only (command, toolkit version,
    resolved settings, list/seed arguments); timings, the solver effort, the
    output directory, the numpy version, the LAPACK the solves came from and
    the peak RSS are recorded in manifest.json but excluded from the hash so
    re-runs elsewhere reproduce identical CSV bytes.
    """

    config_path: str
    command: str
    out_dir: str
    resolved: dict
    timings: dict
    solver: dict = field(default_factory=dict)

    @property
    def hash(self) -> str:
        return settings_hash({"command": self.command, "version": __version__,
                              "settings": self.resolved})

    def write(self, path) -> None:
        doc = {"config_path": self.config_path, "command": self.command,
               "version": __version__, "out_dir": str(self.out_dir),
               "hash": self.hash, "settings": self.resolved,
               "timings": self.timings, "solver": self.solver, "numpy": np.__version__,
               "lapack": operator._LAPACK.name, "peak_rss_mib": _peak_rss_mib()}
        with _output(path, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _peak_rss_mib():
    """The process's own peak resident set so far (VmHWM) in MiB, or None where
    there is no /proc. Not ru_maxrss: a child started through vfork, as
    subprocess.Popen starts one, inherits its launcher's peak there."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


@contextlib.contextmanager
def _output(path, mode):
    """open(path, mode) for an output file, with '\\n' newlines in text mode; an
    OSError opening, writing or closing it is a ConfigError naming the file."""
    try:
        with open(path, mode, newline=None if "b" in mode else "\n") as fh:
            yield fh
    except OSError as exc:
        raise ConfigError(f"--out {path.parent}: cannot write {path.name}: "
                          f"{exc.strerror or exc}") from exc


def write_csv(path, manifest_hash: str, header, rows) -> None:
    with _output(path, "wb") as fh:
        fh.write(f"# manifest_hash={manifest_hash}\n{','.join(header)}\n".encode())
        for row in rows:
            # a uint8 array is a block of lines formatted already
            fh.write(row if isinstance(row, np.ndarray)
                     else (",".join(map(_fmt, row)) + "\n").encode())


_BLOCK_VALUES = 4096  # w values per block of _field_rows


def _aligned(values, width: int, right: bool):
    """Texts of values at the right or left end of (n, width) rows, and
    their masks."""
    from ._g17 import slots  # here, so that commands writing no such file never load it
    text, keep = slots(values)
    lengths = keep.sum(axis=1)[:, None]
    cols = np.arange(width)
    aligned = cols >= width - lengths if right else cols < lengths
    out = np.zeros(aligned.shape, np.uint8)
    out[aligned] = text[keep]
    return out, aligned


def _field_rows(times, x, states):
    """Blocks of (t, x, w) lines, each field the text of format(v, '.17g').

    A block's records fill one skeleton of (records, nodes, line) bytes and
    its keep mask: t right-aligned in bytes 0..23 and ',' at 24, then 'x,'
    left-aligned from 25, so that 't,x,' is one run; t and x are formatted
    once per file; the w row of _g17 from byte 56, filled in place; then
    '\n'. One boolean compress gives the block's bytes.
    """
    from ._g17 import WORDS, fill
    nodes = len(x)
    per_block = max(1, _BLOCK_VALUES // nodes)
    w_words = slice(7, 7 + WORDS)
    line = 8 * w_words.stop + 8
    skeleton = np.zeros((per_block, nodes, line), np.uint8)
    keep = np.zeros(skeleton.shape, bool)
    ends = [24, line - 8]
    skeleton[..., ends], keep[..., ends] = np.frombuffer(b",\n", np.uint8), True
    x_text, x_keep = _aligned(x, 25, right=False)
    x_ends = (np.arange(nodes), x_keep.sum(axis=1))
    x_text[x_ends], x_keep[x_ends] = ord(","), True
    skeleton[..., 25:50], keep[..., 25:50] = x_text, x_keep
    skeleton64, keep64 = skeleton.view(np.uint64), keep.view(np.uint64)
    t_text, t_keep = (part.view(np.uint64) for part in _aligned(times, 24, right=True))
    for start in range(0, len(times), per_block):
        records = min(per_block, len(times) - start)
        for word in range(3):
            skeleton64[:records, :, word] = t_text[start:start + records, word, None]
            keep64[:records, :, word] = t_keep[start:start + records, word, None]
        fill(states[start:start + records], skeleton64[:records, :, w_words],
             keep64[:records, :, w_words])
        yield skeleton[:records][keep[:records]]


def _column_rows(*columns):
    """Blocks of lines of the columns' values side by side, comma-separated, each
    field the text of format(v, '.17g'): field j of a row fills words
    j * (WORDS + 1) onwards of one skeleton row, its ',' or '\n' the word after."""
    from ._g17 import WORDS, fill
    per_block = max(1, _BLOCK_VALUES // len(columns))
    skeleton = np.zeros((per_block, len(columns), WORDS + 1), np.uint64)
    keep = np.zeros(skeleton.shape, np.uint64)
    ends = (..., 8 * WORDS)
    skeleton.view(np.uint8).reshape(per_block, len(columns), -1)[ends] = np.frombuffer(
        b"," * (len(columns) - 1) + b"\n", np.uint8)
    keep.view(np.uint8).reshape(per_block, len(columns), -1)[ends] = True
    for start in range(0, len(columns[0]), per_block):
        records = min(per_block, len(columns[0]) - start)
        for j, values in enumerate(columns):
            fill(values[start:start + records], skeleton[:records, j, :WORDS],
                 keep[:records, j, :WORDS])
        yield skeleton[:records].view(np.uint8)[keep[:records].view(bool)]


def cmd_steady(cfg: ResolvedConfig, out_dir, manifest: RunManifest) -> int:
    grid = cfg.grid()
    params = cfg.reactor_params(t_final=cfg.t_final)
    solution = steady_state_numeric(params, cfg.u_bar, grid)
    x = grid.nodes.tolist()
    write_csv(out_dir / "steady.csv", manifest.hash, ("x", "c_bar"),
              zip(x, solution.profile.values.tolist()))
    manifest.solver.update(newton_iterations=solution.iterations,
                           newton_residual=solution.residual_norm)
    print(f"steady state solved: {solution.iterations} Newton iterations, "
          f"residual {solution.residual_norm:.3e}")
    if abs(cfg.n - 1.0) <= 1e-12:
        analytic = steady_state_analytic_n1(params, cfg.u_bar)
        ana_vals = analytic.evaluate(grid.nodes)
        write_csv(out_dir / "steady_analytic.csv", manifest.hash, ("x", "c_bar"),
                  zip(x, ana_vals.tolist()))
        rel = float(np.max(np.abs(solution.profile.values - ana_vals))
                    / np.max(np.abs(ana_vals)))
        print(f"max relative discrepancy vs analytic: {_fmt(rel)}")
    return EXIT_OK


def cmd_simulate(cfg: ResolvedConfig, out_dir, manifest: RunManifest,
                 snapshots) -> int:
    started = time.process_time()
    run = closed_loop(cfg.run())
    steadied = time.process_time()
    traj = simulate(*run)
    stepped = time.process_time()
    config = run[0]
    times, x = traj.times, config.grid.nodes
    write_csv(out_dir / "trajectory.csv", manifest.hash, ("t", "x", "w"),
              _field_rows(times, x, traj.states))
    write_csv(out_dir / "control.csv", manifest.hash, ("t", "u_w"),
              _column_rows(times, cfg.alpha * traj.states[:, 0]))

    # a block of records at a time, so the temporaries stay small; a 2-D reduce
    # keeps each row's bits
    weight = default_weight(config.grid, config.params)
    per_block = max(1, _BLOCK_VALUES // len(x))
    energies = np.concatenate([energy(traj.states[start:start + per_block], weight)
                               for start in range(0, len(times), per_block)])
    write_csv(out_dir / "energy.csv", manifest.hash, ("t", "energy", "norm_rho"),
              _column_rows(times, energies, np.sqrt(2.0 * energies)))

    snaps = list(dict.fromkeys(int(np.argmin(np.abs(times - t_snap)))
                               for t_snap in snapshots))
    write_csv(out_dir / "profiles.csv", manifest.hash, ("t", "x", "w"),
              _field_rows(times[snaps], x, traj.states[snaps]))
    # process CPU seconds of each phase, in manifest.json outside the hash
    manifest.timings["phases"] = {"steady": steadied - started, "step": stepped - steadied,
                                  "write": time.process_time() - stepped}
    manifest.solver.update(newton_iterations=run[1].iterations,
                           newton_residual=run[1].residual_norm,
                           inner_steps=traj.inner_steps, negativity_events=traj.negativity_events)
    print(f"simulated {traj.times[-1]:g} s in {len(traj.times)} records "
          f"(inner steps {traj.inner_steps}, negativity events {traj.negativity_events})")
    return EXIT_OK


def cmd_sweep(cfg: ResolvedConfig, out_dir, manifest: RunManifest,
              n_list, alpha_list) -> int:
    # every cell's run, n then alpha in list order; an out-of-domain list value
    # raises ParameterError, a config error, before any steady solve
    runs = [replace(cfg, n=n, alpha=a).run(to_horizon=True)
            for n in n_list for a in alpha_list]
    result = sweep(runs, window_fraction=cfg.window_fraction, floor=cfg.floor)
    swept = time.process_time()

    lam_t = lambda_theoretical(runs[0].params)
    # one sweep.csv row and one sweep_cells.json entry (outside the hash) per cell
    keys = ("newton_iterations", "inner_steps", "negativity_events")
    rows, cells = [], []
    for cell in result.cells.values():
        est = cell.estimate
        rows.append((cell.n, cell.alpha, None if est is None else est.lambda_n, lam_t,
                     None if est is None else est.fit_r2, est is not None and est.floor_hit))
        cells.append({"hash": cell.provenance["hash"], "n": cell.n, "alpha": cell.alpha,
                      **{key: cell.provenance.get(key) for key in keys},
                      "fit_window": None if est is None else list(est.fit_window),
                      "fit_r2": None if est is None else est.fit_r2, "error": cell.error})
    write_csv(out_dir / "sweep.csv", manifest.hash,
              ("n", "alpha", "lambda_n", "lambda_t", "fit_r2", "floor_hit"), rows)
    with _output(out_dir / "sweep_cells.json", "w") as fh:
        json.dump(cells, fh, indent=2)
        fh.write("\n")
    # process CPU seconds of each phase, in manifest.json outside the hash
    manifest.timings["phases"] = {**result.phases, "write": time.process_time() - swept}

    # a '-' marks a cell with no rate: failed, or its norm started at the floor
    print("n\\alpha" + "".join(f"{a:>12g}" for a in alpha_list))
    width = len(alpha_list)
    for i in range(0, len(rows), width):
        print(f"{rows[i][0]:<7g}" + "".join(f"{'-':>12}" if row[2] is None else f"{row[2]:>12.4f}"
                                            for row in rows[i:i + width]))
    for (n, a), cell in sorted(result.cells.items()):
        if cell.error is not None:
            print(f"cell (n={n:g}, alpha={a:g}) failed: {cell.error}",
                  file=sys.stderr)

    if all(cell.error is not None for cell in result.cells.values()):
        print("all sweep cells failed", file=sys.stderr)
        return EXIT_SWEEP
    return EXIT_OK


def cmd_verify(cfg: ResolvedConfig, out_dir, manifest: RunManifest, seed: int) -> int:
    """seed is in the manifest hash only: no check reads it."""
    from .verify import run_checks  # here, so that the other commands never load the suite
    rows = []
    for row in run_checks(cfg, manifest.timings.setdefault("checks", {})):
        rows.append(row)
        check, metric, value, _, status = row
        mark = status if isinstance(status, str) else ("pass" if status else "FAIL")
        print(f"{check:<20} {metric:<32} {_fmt(value):<24} {mark}")
    write_csv(out_dir / "verify.csv", manifest.hash,
              ("check", "metric", "value", "threshold", "pass"), rows)
    return EXIT_VERIFY if any(row[-1] is False for row in rows) else EXIT_OK


_COMMANDS = {"steady": cmd_steady, "simulate": cmd_simulate, "sweep": cmd_sweep,
             "verify": cmd_verify}


def _parse_float_list(raw: str, flag: str, distinct: bool = False):
    try:
        values = tuple(float(tok) for tok in raw.split(",") if tok.strip() != "")
    except ValueError:
        raise ConfigError(f"{flag} must be a comma-separated list of numbers, got {raw!r}")
    if not values:
        raise ConfigError(f"{flag} must be non-empty")
    if not all(map(math.isfinite, values)):
        raise ConfigError(f"{flag} values must be finite, got {raw!r}")
    if distinct and len(set(values)) < len(values):
        raise ConfigError(f"{flag} values must be distinct, got {raw!r}")
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
                          help="0 to 2**64 - 1; hashed into manifest.json, but no "
                               "check reads it")
    return parser


def _no_memory(cfg: ResolvedConfig, exc: MemoryError) -> ConfigError:
    """The config error of a run out of memory. numpy's _ArrayMemoryError carries the
    shape it could not allocate: a dimension of the records to t_final or to the horizon
    (simulate's trajectory, the norms of sweep and of verify's envelope) names the time
    keys that set it; any other array names num_nodes."""
    shape = getattr(exc, "shape", ())
    for end in ("t_final", "horizon"):
        try:
            run = cfg.run(to_horizon=end == "horizon")
        except ParameterError:  # time settings of a run this command never made
            continue
        if run.num_records in shape:
            return ConfigError(f"{end} = {_fmt(getattr(cfg, end))}, dt = {_fmt(run.dt)}, "
                               f"record_every = {cfg.record_every}: no memory for the "
                               f"{run.num_records} records of this run")
    return ConfigError(f"num_nodes = {cfg.num_nodes}: no memory for this run")


def main(argv=None) -> int:
    # the CPU of interpreter start-up and imports, before any work of this call
    load_s = time.process_time()
    from pathlib import Path

    args = build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        cfg = load_config(args.config)
        extra = {}
        if args.command == "simulate":
            extra["snapshots"] = _parse_float_list(args.snapshots, "--snapshots")
        elif args.command == "sweep":
            extra["n_list"] = _parse_float_list(args.n_list, "--n-list", distinct=True)
            extra["alpha_list"] = _parse_float_list(args.alpha_list, "--alpha-list",
                                                    distinct=True)
        elif args.command == "verify":
            if args.seed < 0:
                raise ConfigError(f"--seed must be >= 0, got {args.seed}")
            if args.seed >= 2 ** 64:
                raise ConfigError(f"--seed must be <= 2**64 - 1 = {2**64 - 1}, got {args.seed}")
            extra["seed"] = args.seed

        out_dir = Path(args.out)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"--out {out_dir} is not a usable directory: {exc}") from exc
        # tuples serialize as JSON lists, so the hash and manifest.json see lists
        manifest = RunManifest(config_path=str(args.config), command=args.command,
                               out_dir=str(out_dir), resolved={**asdict(cfg), **extra},
                               timings={"load_s": load_s})
        try:
            code = _COMMANDS[args.command](cfg, out_dir, manifest, **extra)
        except MemoryError as exc:
            raise _no_memory(cfg, exc)
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
    except DftrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
