"""Command-line driver: profile / verify / norms / oracle / all.

Configuration is a flat key=value file with command-line flags taking
precedence; OUT_DIR in the environment overrides the output directory.
Every run writes a manifest echoing the effective configuration next to
its outputs, and a machine-parseable summary is emitted even on failure.
Exit status is 0 iff every check passed.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import traceback
from dataclasses import asdict, dataclass
from typing import get_type_hints

import numpy as np

from . import __version__
from ._csvio import write_csv, write_json
from .errors import AxiswirlError, ConfigError
from .fields import FIELD_SLICE_HEADER, SolutionFamily, field_slice_rows
from .norms import (NORM_SERIES_HEADER, classify_LqtL1x, energy_series,
                    l1_series, norm_series_rows, y_series)
from .numerics import DEFAULT_SPEC, TimeLadder, deepest_J
from .oracle import (OCTAVES, TRAJECTORY_HEADER, convergence_study,
                     default_levels, trajectory_rows)
from .profiles import (build_profile, forcing_from_samples, ode_residual,
                       profile_table, reference_k)
from .verify import check_bound, check_boundary, check_swirl_pde, report_to_dict

PROFILE_HEADER = ["r", "phi0", "phi0_prime", "phi0_second", "ode_residual"]
ODE_RESIDUAL_TOL = 1e-8


@dataclass
class RunConfig:
    T: float = 0.5
    part: int = 1
    k_spec: str = "bump"
    grid_n: int = 128
    ladder_J: int = 12
    out_dir: str = "axiswirl-out"
    oracle_n_r: int = 128

    def validate(self):
        if not (0.0 < self.T <= 0.5):
            raise ConfigError("T must lie in (0, 1/2]")
        if self.part not in (1, 2):
            raise ConfigError("part must be 1 or 2")
        if self.ladder_J < 4:
            raise ConfigError("ladder_J must be at least 4")
        if max(self.ladder_J, LADDER_FLOOR) > deepest_J(self.T):
            raise ConfigError(f"ladder_J = {self.ladder_J} is too deep for T = {self.T!r}: "
                              f"the levels T (1 - 2^-j) increase strictly below T only "
                              f"to j = {deepest_J(self.T)}, and runs take max(ladder_J, "
                              f"{LADDER_FLOOR})")
        if self.grid_n < 8:
            raise ConfigError("grid_n must be at least 8")
        try:  # the constructors' own checks, on what cmd_oracle builds
            default_levels(base_n=self.oracle_n_r)
        except ValueError as exc:
            raise ConfigError(f"oracle settings: {exc}") from exc


LADDER_FLOOR = 20  # the least depth of the boundary-check and energy ladders


def _floor_ladder(cfg: RunConfig):
    """The boundary-check and energy ladder, held to ``deepest_J`` by ``validate``."""
    return TimeLadder(cfg.T, max(cfg.ladder_J, LADDER_FLOOR))


# Every RunConfig field is a key and a flag.
_CONFIG_KEYS = get_type_hints(RunConfig)


def load_config(path: str) -> dict:
    """Flat key = value file; '#' starts a comment."""
    values = {}
    try:
        handle = open(path)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: "
                          f"{exc.strerror}") from exc
    with handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key, _, val = line.partition("=")
            key = key.strip()
            if key not in _CONFIG_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                values[key] = _CONFIG_KEYS[key](val.strip())
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from exc
    return values


def load_k_table(path: str):
    """Two-column CSV (r, k); cubic interpolation, endpoints forced to zero."""
    radii, kvals = [], []
    header_allowed = True  # on the first line that is not blank or a comment
    with open(path) as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if header_allowed:
                header_allowed = False
                if not _is_number(parts[0]):
                    continue
            if len(parts) != 2 or not all(_is_number(p) for p in parts):
                raise ConfigError(f"{path}:{lineno}: expected 'r,k' numbers")
            radii.append(float(parts[0]))
            kvals.append(float(parts[1]))
    if len(radii) < 4:
        raise ConfigError(f"{path}: need at least four samples")
    try:
        return forcing_from_samples(np.asarray(radii), np.asarray(kvals))
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _is_number(token: str) -> bool:
    try:
        float(token)
        return True
    except ValueError:
        return False


def build_family(cfg: RunConfig) -> SolutionFamily:
    if cfg.k_spec == "bump":
        k = reference_k()
    else:
        k = load_k_table(cfg.k_spec)
        if cfg.part == 2 and not k.nonpositive:
            raise ConfigError("part 2 requires a nonpositive forcing table")
    return SolutionFamily(profile=build_profile(k), T=cfg.T, part=cfg.part)


def _out_path(cfg: RunConfig, name: str) -> str:
    os.makedirs(cfg.out_dir, exist_ok=True)
    return os.path.join(cfg.out_dir, name)


def write_manifest(cfg: RunConfig, command: str) -> None:
    payload = {
        "command": command,
        "config": asdict(cfg),
        "versions": {
            "axiswirl": __version__,
            "numpy": np.__version__,
            "scipy": _installed_version("scipy"),
            "python": sys.version.split()[0],
        },
        "seeds": "deterministic (nothing is random)",
    }
    write_json(_out_path(cfg, f"manifest_{command}.json"), payload)


@functools.cache
def _installed_version(package: str):
    """The installed version of ``package``, read without importing it;
    None when it is not installed (only ``oracle`` needs scipy)."""
    from importlib import metadata

    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def cmd_profile(cfg: RunConfig) -> int:
    fam = build_family(cfg)
    prof = fam.profile
    radii = np.geomspace(1e-3, 1.0, 201)
    table = profile_table(prof, radii)
    write_csv(_out_path(cfg, "profile.csv"), PROFILE_HEADER, table)
    res_max = float(np.max(np.abs(table[:, 4])))
    # The residual cancels identically in h = g/r^2, in I and in k, so it
    # checks the derivative formulas, not the caches. g = r^2 h is also held
    # against the direct quadrature, within its contract; no gate reads I.
    probe = radii[::40]
    g_exact = np.array([prof.g_exact(r) for r in probe])
    g_ratio = float(np.max(np.abs(prof.g(probe) - g_exact) / np.maximum(
        DEFAULT_SPEC.abs_tol, DEFAULT_SPEC.rel_tol * np.abs(g_exact))))
    passed = res_max < ODE_RESIDUAL_TOL and g_ratio <= 1.0
    summary = {
        "alpha": prof.alpha,
        "I0": prof.I0,
        "max_ode_residual": res_max,
        "residual_tolerance": ODE_RESIDUAL_TOL,
        "max_g_error_over_tolerance": g_ratio,
        "passed": passed,
    }
    write_json(_out_path(cfg, "profile_summary.json"), summary)
    print(f"profile: alpha = {prof.alpha:.6e}, max |ode residual| = "
          f"{res_max:.3e}, max |g - g_exact|/tolerance = {g_ratio:.3g} -> "
          f"{'pass' if passed else 'FAIL'}")
    return 0 if passed else 1


def cmd_verify(cfg: RunConfig) -> int:
    fam = build_family(cfg)
    ladder = TimeLadder(cfg.T, cfg.ladder_J)
    checks = []
    fields_to_check = ["v"] if cfg.part == 1 else ["eta", "vbar"]
    for which in fields_to_check:
        checks.append(check_swirl_pde(fam, which, cfg.grid_n, ladder))
    checks.append(check_boundary(fam, _floor_ladder(cfg)))
    bounds = [check_bound(fam, "u_upper", cfg.grid_n, ladder),
              check_bound(fam, "grad_u_upper", cfg.grid_n, ladder)]
    if cfg.part == 2 and fam.profile.k.nontrivial:
        # A trivial forcing makes the lower-bound claim empty (u = 0).
        bounds.append(check_bound(fam, "phi_lower", cfg.grid_n, ladder))

    report = {"checks": [report_to_dict(c) for c in checks + bounds]}
    report["passed"] = all(c["passed"] for c in report["checks"])
    write_json(_out_path(cfg, "verify_report.json"), report)
    slice_r = np.linspace(0.0, 1.0, cfg.grid_n)[1:-1:max(1, cfg.grid_n // 32)]
    slice_t = ladder.levels[:: max(1, len(ladder) // 6)]
    write_csv(_out_path(cfg, "field_slice.csv"), FIELD_SLICE_HEADER,
              field_slice_rows(fam, slice_r, slice_t))
    for c in report["checks"]:
        name = c.get("equation", c.get("name"))
        if "name" in c:  # C* = 0 only for a zero field, whose samples are 0
            ratio = c["fitted_C"] / c["C_star"] if c["C_star"] else float("nan")
            headroom = f"fitted_C/C_star = {ratio:.6g}"
        else:
            headroom = ("max_abs_residual/tolerance = "
                        f"{c['max_abs_residual'] / c['tolerance']:.3g}")
        print(f"verify: {name}: {'pass' if c['passed'] else 'FAIL'} ({headroom})")
    return 0 if report["passed"] else 1


def _classification_depth(fam: SolutionFamily, floor: int) -> int:
    # The log-transformed family saturates once sqrt(T - t) falls below the
    # wall constant; the growth laws are checked on a window of saturated
    # levels: 14 past saturation, at least 28 and ``floor``, at most deepest_J.
    alpha = abs(fam.alpha)
    depth = 28 if alpha == 0.0 else int(np.ceil(np.log2(fam.T) - 2.0 * np.log2(alpha))) + 14
    return max(floor, min(max(depth, 28), deepest_J(fam.T)))


def cmd_norms(cfg: RunConfig) -> int:
    fam = build_family(cfg)
    ladder = _floor_ladder(cfg)
    deep = TimeLadder(cfg.T, _classification_depth(fam, cfg.ladder_J))
    series = [energy_series(fam, "v", ladder)]
    if cfg.part == 2:
        series.append(energy_series(fam, "vbar", ladder))
    series.append(l1_series(fam, deep))
    if cfg.part == 2:
        series.extend(y_series(fam, deep))
    classify_targets = {s.quantity: s for s in series
                        if s.quantity in ("L1_f", "L1_Y")}

    for s in series:
        write_csv(_out_path(cfg, f"norms_{s.quantity}.csv"),
                  NORM_SERIES_HEADER, norm_series_rows(s))

    classification = []
    for name, s in classify_targets.items():
        for q in (1.5, 1.9, 2.1, 3.0, 4.0):
            c = classify_LqtL1x(s, q)
            classification.append({
                "series": name, "q": q, "finite": c.finite,
                "estimate": c.estimate if np.isfinite(c.estimate) else None,
                "model": c.model, "law_headroom": c.law_headroom,
            })
    summary = {
        "ratios": {s.quantity: float(np.max(np.abs(s.ratios))) for s in series},
        "classification": classification,
    }
    write_json(_out_path(cfg, "norms_summary.json"), summary)
    for row in classification:
        verdict = {True: "finite", False: "infinite", None: "inconclusive"}[row["finite"]]
        print(f"norms: {row['series']} q={row['q']}: {verdict} ({row['model']}, "
              f"|measured - law|/tolerance = {row['law_headroom']:.3g})")
    failures = norms_verdict_failures(classification, fam.profile.k.nontrivial)
    for failure in failures:
        print(f"norms: FAIL: {failure}")
    return 1 if failures else 0


def norms_verdict_failures(classification: list, nontrivial: bool) -> list:
    """Classification rows that contradict the paper, as messages.

    ``L1_f`` lies in L^q_t exactly for q < 2 and ``L1_Y`` for every q. An
    inconclusive verdict is a failure. A trivial forcing makes both claims
    empty (every norm is zero), so then only an inconclusive verdict fails.
    """
    failures = []
    for row in classification:
        expected = row["q"] < 2.0 if row["series"] == "L1_f" else True
        if row["finite"] is None or (nontrivial and row["finite"] != expected):
            failures.append(f"{row['series']} q={row['q']}: finite = "
                            f"{row['finite']}, the paper says {expected}")
    return failures


ORACLE_ERROR_BUDGET = 1e-5
ORACLE_ORDER_BAND = (1.7, 2.3)  # Crank-Nicolson is second order


def cmd_oracle(cfg: RunConfig) -> int:
    fam = build_family(cfg)
    levels = default_levels(base_n=cfg.oracle_n_r)
    run = convergence_study(fam, levels)
    low, high = ORACLE_ORDER_BAND
    order_ok = low <= run.convergence_order <= high
    passed = (run.study_valid and order_ok
              and run.final_error_Linf < ORACLE_ERROR_BUDGET)

    payload = {
        "theta": 0.5,  # the Crank-Nicolson weight
        # dt is the first octave's step, delta the last octave's end T - t
        "levels": [{"n_r": l.n_r, "dt": 0.5 * fam.T / l.steps,
                    "delta": fam.T * 0.5**OCTAVES} for l in levels],
        "steps": [OCTAVES * l.steps for l in levels],
        "errors_Linf": run.errors_per_level,
        "orders": run.orders_per_pair,
        "convergence_order": run.convergence_order,
        "final_error_Linf": run.final_error_Linf,
        "final_error_L2": run.final_error_L2,
        "order_band": ORACLE_ORDER_BAND,
        "error_budget": ORACLE_ERROR_BUDGET,
        "study_valid": run.study_valid,
        "passed": passed,
    }
    write_json(_out_path(cfg, "oracle_study.json"), payload)
    write_csv(_out_path(cfg, "oracle_trajectory.csv"), TRAJECTORY_HEADER,
              trajectory_rows(fam, run.finest))
    print(f"oracle: order = {run.convergence_order:.2f} "
          f"(band {ORACLE_ORDER_BAND}), final Linf = {run.final_error_Linf:.3e} "
          f"-> {'pass' if passed else 'FAIL'}")
    return 0 if passed else 1


COMMANDS = {
    "profile": cmd_profile,
    "verify": cmd_verify,
    "norms": cmd_norms,
    "oracle": cmd_oracle,
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="axiswirl",
        description="Construct the cylinder blow-up swirl fields and run "
                    "their verification suite.")
    parser.add_argument("command", choices=[*COMMANDS, "all"])
    parser.add_argument("--config", help="flat key = value configuration file")
    parser.add_argument("--part", type=int, choices=(1, 2))
    parser.add_argument("--T", type=float)
    parser.add_argument("--k", dest="k_spec",
                        help="'bump' or path to a two-column (r,k) CSV table")
    parser.add_argument("--grid-n", type=int, dest="grid_n")
    parser.add_argument("--ladder-J", type=int, dest="ladder_J")
    parser.add_argument("--out", dest="out_dir")
    parser.add_argument("--oracle-n-r", type=int, dest="oracle_n_r")
    return parser.parse_args(argv)


def build_run_config(args) -> RunConfig:
    values = {}
    if args.config:
        values.update(load_config(args.config))
    for key in _CONFIG_KEYS:
        val = getattr(args, key)
        if val is not None:
            values[key] = val
    if "OUT_DIR" in os.environ:
        values["out_dir"] = os.environ["OUT_DIR"]
    return RunConfig(**values)


def main(argv=None) -> int:
    args = _parse_args(argv if argv is not None else sys.argv[1:])
    commands = list(COMMANDS) if args.command == "all" else [args.command]
    status = 0
    summary = {"command": args.command, "results": {}}
    # Holds only the summary's directory until the config is built: the
    # one build_run_config picks, short of the config file's own out_dir.
    cfg = RunConfig(out_dir=os.environ.get("OUT_DIR",
                                           args.out_dir or RunConfig.out_dir))
    try:
        cfg = build_run_config(args)
        cfg.validate()
        for command in commands:
            write_manifest(cfg, command)
            rc = COMMANDS[command](cfg)
            summary["results"][command] = rc
            status = max(status, rc)
    except ConfigError as exc:
        print(f"axiswirl: {exc}", file=sys.stderr)
        summary["error"] = str(exc)
        status = 2
    except AxiswirlError as exc:
        print(f"axiswirl: {exc}", file=sys.stderr)
        summary["error"] = str(exc)
        status = 1
    except OSError as exc:
        print(f"axiswirl: i/o failure: {exc}", file=sys.stderr)
        summary["error"] = str(exc)
        status = 2
    except Exception as exc:  # any other failure is a failed run, summarised
        traceback.print_exc()
        summary["error"] = f"{type(exc).__name__}: {exc}"
        print(f"axiswirl: {summary['error']}", file=sys.stderr)
        status = 1
    summary["exit_status"] = status
    try:
        write_json(_out_path(cfg, "run_summary.json"), summary)
    except OSError as exc:
        print(f"axiswirl: could not write summary: {exc}", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
