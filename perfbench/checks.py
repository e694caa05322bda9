"""Output checks for the benchmark workloads.

Each check reads the files one `dftr` run wrote and returns the problems it
found (an empty list when the outputs are correct) together with
information that is reported but never gated on, such as the sha256 of each
CSV. No check compares bytes with a stored copy: any correct stepper, writer
or solver must pass them.

Usage: python3 perfbench/checks.py WORKLOAD_INI COMMAND
reads one output directory per line and answers each with one JSON line
(see serve).
"""

from __future__ import annotations

import configparser
import csv
import hashlib
import io
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# |lambda_N - lambda_spec| / lambda_spec allowed in any sweep cell. A
# second-order stepper at dt = 1 s errs by about (lambda dt)^2 / 12, which is
# near 3e-5 here; a first-order one errs by lambda dt / 2, near 1e-2.
RATE_REL_ERR_BOUND = 1e-3
# Relative slack on energy monotonicity, as in the CLI tests.
ENERGY_SLACK = 1e-12
# Envelope ||w(t)|| <= ENVELOPE * ||w(0)|| * exp(-lambda_T t), as in `dftr verify`.
ENVELOPE = 1.01
SIMULATE_FILES = ("trajectory.csv", "control.csv", "energy.csv", "profiles.csv")
VERIFY_ROWS = ("dissipativity", "resolvent_error", "resolvent_order",
               "duhamel_nonlinear", "duhamel_linear", "equilibrium", "envelope")
SWEEP_N = (0.5, 1.0, 2.0, 10.0)
SWEEP_ALPHA = (0.0, 0.25, 0.5)


@dataclass(frozen=True)
class Case:
    """The settings of one workload INI that the checks need."""

    v: float
    l: float
    d_ax: float
    k: float
    n: float
    alpha: float
    u_bar: float
    num_nodes: int
    t_final: float
    dt: float
    horizon: float

    @property
    def lambda_t(self) -> float:
        return self.v ** 2 / (16.0 * self.d_ax)


def load_case(path) -> Case:
    """Read a workload INI; unset keys take the `dftr` defaults."""
    ini = configparser.ConfigParser(interpolation=None)
    with open(path) as fh:
        ini.read_file(fh)

    def get(section, key, default):
        return float(ini.get(section, key, fallback=default))

    v, l = get("reactor", "v", None), get("reactor", "l", None)
    return Case(v=v, l=l, d_ax=v * l / get("reactor", "peclet", None),
                k=get("reactor", "k", None), n=get("reactor", "n", None),
                alpha=get("control", "alpha", 0.0),
                u_bar=get("control", "u_bar", 1.0),
                num_nodes=int(get("grid", "num_nodes", 201)),
                t_final=get("time", "t_final", 400.0),
                dt=get("time", "dt", 0.1),
                horizon=get("time", "horizon", 7000.0))


@dataclass
class Outcome:
    problems: list
    info: dict


def _read_csv(path: Path, manifest_hash: str, problems: list, info: dict):
    """Return (header, body text) of a dftr CSV, checking its hash line."""
    data = path.read_bytes()
    info[f"sha256.{path.name}"] = hashlib.sha256(data).hexdigest()
    first, header, body = data.decode().split("\n", 2)
    if first != f"# manifest_hash={manifest_hash}":
        problems.append(f"{path.name}: first line {first!r} does not carry "
                        f"manifest hash {manifest_hash}")
    return header.split(","), body


def _numeric(name: str, body: str, problems: list) -> np.ndarray:
    """The rows of a numeric CSV body; an empty table when unreadable."""
    try:
        return np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    except ValueError as exc:
        problems.append(f"{name}: unreadable: {exc}")
        return np.empty((0, 0))


def _manifest_hash(out_dir: Path, problems: list):
    try:
        return json.loads((out_dir / "manifest.json").read_text())["hash"]
    except (OSError, ValueError, KeyError) as exc:
        problems.append(f"manifest.json unreadable: {exc}")
        return None


def _missing(out_dir: Path, names, problems: list) -> bool:
    absent = [name for name in names if not (out_dir / name).is_file()]
    if absent:
        problems.append(f"missing outputs: {', '.join(absent)}")
    return bool(absent)


def check_simulate(out_dir: Path, case: Case) -> Outcome:
    """All four CSVs present and hashed, every float finite, the full
    trajectory recorded, u_w = alpha * w(0, t), and the weighted energy
    non-increasing and inside the lambda_T envelope."""
    problems, info = [], {}
    manifest_hash = _manifest_hash(out_dir, problems)
    if _missing(out_dir, SIMULATE_FILES, problems) or manifest_hash is None:
        return Outcome(problems, info)
    tables = {}
    for name in SIMULATE_FILES:
        _, body = _read_csv(out_dir / name, manifest_hash, problems, info)
        table = _numeric(name, body, problems)
        if not np.all(np.isfinite(table)):
            problems.append(f"{name}: non-finite values")
        tables[name] = table

    nodes = case.num_nodes
    records = round(case.t_final / case.dt) + 1
    traj, control, energy = (tables["trajectory.csv"], tables["control.csv"],
                             tables["energy.csv"])
    if traj.shape != (records * nodes, 3) or control.shape != (records, 2) \
            or energy.shape != (records, 3):
        problems.append(f"shapes trajectory {traj.shape}, control {control.shape}, "
                        f"energy {energy.shape}; expected {records} records of "
                        f"{nodes} nodes")
        return Outcome(problems, info)

    w_inlet = traj[::nodes, 2]
    if not np.allclose(control[:, 1], case.alpha * w_inlet,
                       rtol=4 * np.finfo(float).eps, atol=0.0):
        problems.append("control.csv: u_w differs from alpha * w(0, t)")
    e, norm, t = energy[:, 1], energy[:, 2], energy[:, 0]
    if not np.all(np.diff(e) <= ENERGY_SLACK * e[0]):
        problems.append("energy.csv: energy increases")
    envelope = float(np.max(norm / (norm[0] * np.exp(-case.lambda_t * t))))
    info["envelope_ratio"] = envelope
    if not envelope <= ENVELOPE:
        problems.append(f"energy.csv: norm exceeds {ENVELOPE} x exp(-lambda_T t) "
                        f"envelope (ratio {envelope})")
    return Outcome(problems, info)


def generator_bands(case: Case, alpha: float):
    """Central-difference A_h with the ghost nodes of the Robin inlet,
    (1 - alpha) w(0) = (d_ax / v) w_x(0), and the zero-gradient outlet
    eliminated. Written out here so the rate oracle does not lean on the
    code it checks."""
    m = case.num_nodes
    h = case.l / (m - 1)
    d, v = case.d_ax, case.v
    lower = np.full(m, d / h ** 2 + v / (2.0 * h))
    diag = np.full(m, -2.0 * d / h ** 2)
    upper = np.full(m, d / h ** 2 - v / (2.0 * h))
    diag[0] = -2.0 * d / h ** 2 - 2.0 * v * (1.0 - alpha) / h \
        - v * v * (1.0 - alpha) / d
    upper[0] = 2.0 * d / h ** 2
    lower[-1] = 2.0 * d / h ** 2
    return lower, diag, upper


def spectral_rates(case: Case) -> dict:
    """lambda_spec per (n, alpha): minus the top eigenvalue of
    A_h + diag(-k n C^(n-1)), the generator linearized at the steady
    profile C. With cell Peclet h v / d_ax < 2 the off-diagonal products are
    positive, so the matrix is similar to the symmetric tridiagonal one
    built below and eigh_tridiagonal applies."""
    from scipy.linalg import eigh_tridiagonal

    import dftr

    m = case.num_nodes
    grid = dftr.SpatialGrid(l=case.l, num_nodes=m)
    rates = {}
    for n in SWEEP_N:
        params = dftr.ReactorParams(d_ax=case.d_ax, v=case.v, k=case.k, n=n,
                                    l=case.l, t_final=case.horizon, sat_m=1.0)
        c_bar = dftr.steady_state_numeric(params, case.u_bar, grid).profile.values
        jac = -case.k * n * c_bar ** (n - 1.0)
        for alpha in SWEEP_ALPHA:
            lower, diag, upper = generator_bands(case, alpha)
            off = np.sqrt(upper[:-1] * lower[1:])
            top = eigh_tridiagonal(diag + jac, off, eigvals_only=True,
                                   select="i", select_range=(m - 1, m - 1))[0]
            rates[(n, alpha)] = -float(top)
    return rates


def check_sweep(out_dir: Path, rates: dict) -> Outcome:
    """One finite row per (n, alpha) cell, each fitted lambda_N within
    RATE_REL_ERR_BOUND of the spectral rate."""
    problems, info = [], {}
    manifest_hash = _manifest_hash(out_dir, problems)
    if _missing(out_dir, ("sweep.csv",), problems) or manifest_hash is None:
        return Outcome(problems, info)
    header, body = _read_csv(out_dir / "sweep.csv", manifest_hash, problems, info)
    rows = [dict(zip(header, row)) for row in csv.reader(io.StringIO(body))]
    cells = {}
    for row in rows:
        try:
            values = {key: float(row[key])
                      for key in ("n", "alpha", "lambda_n", "lambda_t", "fit_r2")}
        except (KeyError, ValueError):
            problems.append(f"sweep.csv: unreadable row {row}")
            continue
        if not all(math.isfinite(x) for x in values.values()):
            problems.append(f"sweep.csv: non-finite value in {row}")
        cells[(values["n"], values["alpha"])] = values["lambda_n"]
    if len(rows) != len(rates) or set(cells) != set(rates):
        problems.append(f"sweep.csv: cells {sorted(cells)}, expected {sorted(rates)}")
        return Outcome(problems, info)
    errors = {key: abs(cells[key] - rate) / rate for key, rate in rates.items()}
    worst = max(errors, key=errors.get)
    info["rate_rel_err"] = errors[worst]
    info["rate_rel_err_cell"] = {"n": worst[0], "alpha": worst[1]}
    if not errors[worst] <= RATE_REL_ERR_BOUND:
        problems.append(f"rate_rel_err {errors[worst]} at (n, alpha) = {worst} "
                        f"exceeds {RATE_REL_ERR_BOUND}")
    return Outcome(problems, info)


def check_verify(out_dir: Path) -> Outcome:
    """Seven verify rows, each with a finite value and a pass."""
    problems, info = [], {}
    manifest_hash = _manifest_hash(out_dir, problems)
    if _missing(out_dir, ("verify.csv",), problems) or manifest_hash is None:
        return Outcome(problems, info)
    header, body = _read_csv(out_dir / "verify.csv", manifest_hash, problems, info)
    rows = [dict(zip(header, row)) for row in csv.reader(io.StringIO(body))]
    names = [row.get("check") for row in rows]
    if sorted(names) != sorted(VERIFY_ROWS):
        problems.append(f"verify.csv: checks {names}, expected {list(VERIFY_ROWS)}")
    for row in rows:
        try:
            finite = math.isfinite(float(row.get("value", "")))
        except ValueError:
            finite = False
        if row.get("pass") != "true" or not finite:
            problems.append(f"verify.csv: {row}")
    return Outcome(problems, info)


def serve(ini: str, command: str) -> int:
    """Check one output directory per line of standard input and answer
    each with one JSON line. Runs as its own process so
    the benchmark process that spawns the timed runs stays small: a spawned
    child's peak RSS counts the spawner's memory at the time of the fork."""
    case = load_case(ini)
    if command == "simulate":
        check = lambda out: check_simulate(out, case)  # noqa: E731
    elif command == "sweep":
        rates = spectral_rates(case)
        check = lambda out: check_sweep(out, rates)  # noqa: E731
    else:
        check = check_verify
    print("ready", flush=True)
    for line in sys.stdin:
        outcome = check(Path(line.rstrip("\n")))
        print(json.dumps({"problems": outcome.problems, "info": outcome.info}),
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(serve(*sys.argv[1:]))
