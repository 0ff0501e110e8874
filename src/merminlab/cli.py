"""Command-line verification harness.

Subcommands
    verify    squared-operator expansion residuals over seeded random settings
    table     classical bound vs quantum maximum per particle count (CSV)
    reduce    vanishing-commutator collapse check B^2(n|m) = 2^m B^2(n-m)
    spectrum  eigenvalue clusters of the Bell operator for a settings file
    lhv       classical maximum by phase counting, with a maximizing witness
    optimize  seeded Nelder-Mead maximization over the included planar angles

Exit codes: 0 all checks passed, 1 a verification check failed, 2 usage or
contract error, 3 resource limit exceeded.

Reports are JSON on stdout (CSV for ``table``): ``{``, one line per top-level
key holding that key and its compact value, then ``}``.  With --no-timestamp
the timestamp and wall-time fields are omitted and reruns of the same command
line are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import asdict
from datetime import datetime, timezone

import numpy as np

from .pauli import ResourceLimitError, to_dense
from .settings import PlanarSettings, load_settings, random_planar, random_settings
from .bell import (
    REDUCTION_LIMIT,
    closing_scalar,
    default_reduction_spec,
    mermin_spectrum,
    mermin_square,
    mermin_square_expansion,
    planar_square_diagonal,
    reduction_check,
    spectral_max_of_included_angles,
)
from .spectra import SpectralReport, lhv_max, violation_table
from .optimize import OptimizeConfig, optimize_angles, quantum_ceiling

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def _seed_type(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must be an unsigned 64-bit integer")
    return value


def _tol_type(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError("tolerance must be a finite number >= 0")
    return value


def _base_report(args) -> dict:
    """Command, timestamp and every option of the subcommand, in parser order."""
    report = {"command": args.subcommand}
    if not args.no_timestamp:
        report["timestamp"] = datetime.now(timezone.utc).isoformat()
    report["parameters"] = {
        key: value
        for key, value in vars(args).items()
        if key not in ("subcommand", "handler", "no_timestamp")
    }
    return report


def _run_checks(report: dict, args, trials: int, cases) -> tuple[dict, int]:
    """Run (name, n, tol, residual) cases in order into report's checks and verdict.

    Each residual is a callable, so an entry's wall time covers its own work.
    """
    entries = []
    for name, n, tol, residual in cases:
        start = time.perf_counter()
        value = float(residual())
        entry = {
            "name": name,
            "n": n,
            "trials": trials,
            "tol": tol,
            "max_residual": value,
            "pass": bool(value <= tol),
        }
        if not args.no_timestamp:
            entry["wall_time_s"] = round(time.perf_counter() - start, 6)
        entries.append(entry)
    passed = all(entry["pass"] for entry in entries)
    report["checks"] = entries
    report["overall_pass"] = passed
    return report, EXIT_PASS if passed else EXIT_FAIL


# ---- verify ---------------------------------------------------------------


def _planar_dense_residual(planar: PlanarSettings) -> float:
    """Closed-form diagonal vs the dense factored square, relative to max(1, max |diagonal|)."""
    square = to_dense(mermin_square(planar))
    diagonal = planar_square_diagonal(planar)
    idx = np.arange(len(square))
    square[idx, idx] -= diagonal
    return float(np.max(np.abs(square))) / max(1.0, float(np.max(np.abs(diagonal))))


def cmd_verify(args) -> tuple[dict, int]:
    if not 3 <= args.n_min <= args.n_max <= 11:
        raise ValueError("need 3 <= --n-min <= --n-max <= 11")
    if args.trials < 1:
        raise ValueError("--trials must be >= 1")
    rng = np.random.default_rng(args.seed)

    def worst(n, draw, residual):
        return lambda: max(residual(draw(n, rng)) for _ in range(args.trials))

    def expansion(gamma=0.0):
        return lambda settings: mermin_square_expansion(settings, gamma).residual

    sizes = range(args.n_min, args.n_max + 1)
    tol = args.tol
    cases = [
        # CHSH is sqrt(2) B_(pi/4): the residual is half that of CHSH^2's expansion
        ("chsh_square_expansion", 2, tol, worst(2, random_settings, expansion(math.pi / 4))),
        ("three_particle_square_expansion", 3, tol, worst(3, random_settings, expansion())),
        *(
            ("mermin_square_expansion", n, tol, worst(n, random_settings, expansion()))
            for n in sizes
        ),
        *(
            ("planar_square_diagonal", n, tol, worst(n, random_planar, _planar_dense_residual))
            for n in sizes
        ),
    ]
    return _run_checks(_base_report(args), args, args.trials, cases)


# ---- table ----------------------------------------------------------------


def cmd_table(args) -> tuple[dict | str, int]:
    rows = violation_table(args.max_n)
    if args.format == "csv":
        lines = ["n,lhv_bound,quantum_max,ratio"]
        lines.extend(f"{r.n},{r.lhv_bound},{r.quantum_max},{r.ratio}" for r in rows)
        return "\n".join(lines), EXIT_PASS
    report = _base_report(args)
    report["rows"] = [asdict(r) for r in rows]
    report["overall_pass"] = True
    return report, EXIT_PASS


# ---- reduce ---------------------------------------------------------------


def cmd_reduce(args) -> tuple[dict, int]:
    # before any per-particle work: drawing the base angles alone takes seconds at n = 10^7
    if args.n > REDUCTION_LIMIT:
        raise ResourceLimitError(f"reduction check for n={args.n} exceeds limit {REDUCTION_LIMIT}")
    rng = np.random.default_rng(args.seed)
    if args.settings:
        base = load_settings(args.settings)
        if base.n != args.n:
            raise ValueError(f"settings file has n={base.n}, expected --n {args.n}")
    else:
        base = random_planar(args.n, rng)
    result = reduction_check(base, default_reduction_spec(args.n, args.m))

    def ratio_residual(ratio, expected):
        # a zero reduced maximum leaves no ratio; the law then forces max_abs_full to 0
        return lambda: result.max_abs_full if ratio is None else abs(ratio - expected) / expected

    expected_mu = float(2**args.m)
    report = _base_report(args)
    report["reduction"] = {
        key: value for key, value in asdict(result).items() if key not in ("n", "m")
    }
    cases = [
        ("square_collapse_residual", args.n, args.tol, lambda: result.residual),
        ("mu_max_ratio", args.n, 1e-8, ratio_residual(result.mu_max_ratio, expected_mu)),
        (
            "max_abs_ratio",
            args.n,
            1e-8,
            ratio_residual(result.max_abs_ratio, math.sqrt(expected_mu)),
        ),
    ]
    return _run_checks(report, args, 1, cases)


# ---- spectrum -------------------------------------------------------------


#: spectrum lists every eigenvalue cluster, up to 2^n of them
SPECTRUM_LIMIT = 12


def cmd_spectrum(args) -> tuple[dict, int]:
    settings = load_settings(args.settings)
    n = settings.n
    if n > SPECTRUM_LIMIT:
        raise ResourceLimitError(f"spectrum for n={n} exceeds limit {SPECTRUM_LIMIT}")
    spectral = SpectralReport.from_eigenvalues(mermin_spectrum(settings))
    closed_form = spectral_max_of_included_angles(settings.included_angles)
    # tr(B^2) = 2^n sum |c|^2 = 2^n times B^2's identity coefficient; it grows to
    # 2^(3n-2), so the residual is relative to max(1, tr(B^2))
    trace = 2.0**n * (2.0 ** (n - 1) + closing_scalar(settings))

    report = _base_report(args)
    report["n"] = n
    report["max_abs_eigenvalue"] = spectral.max_abs
    report["clusters"] = spectral.clusters
    cases = [
        (
            "parseval_sum_of_squares",
            n,
            args.tol,
            lambda: abs(math.fsum((spectral.eigenvalues**2).tolist()) - trace) / max(1.0, trace),
        ),
        (
            "spectral_max_closed_form",
            n,
            args.tol,
            lambda: abs(spectral.max_abs**2 - closed_form) / max(1.0, closed_form),
        ),
    ]
    return _run_checks(report, args, 1, cases)


# ---- lhv ------------------------------------------------------------------


def cmd_lhv(args) -> tuple[dict, int]:
    result = lhv_max(args.n, args.family)
    closed_form = 2 if args.family == "chsh" else 2 ** (args.n // 2)
    matches = result.max_value == closed_form
    report = _base_report(args)
    report["max_value"] = result.max_value
    report["closed_form"] = closed_form
    report["witness_a"] = list(result.witness_a)
    report["witness_a_prime"] = list(result.witness_a_prime)
    report["witness_encoding"] = result.witness_encoding
    report["overall_pass"] = matches
    return report, EXIT_PASS if matches else EXIT_FAIL


# ---- optimize -------------------------------------------------------------


def cmd_optimize(args) -> tuple[dict, int]:
    objective = {"spectral": "planar_spectral_max", "ghz": "ghz_expectation"}[args.objective]
    config = OptimizeConfig(
        n=args.n,
        objective=objective,
        restarts=args.restarts,
        max_iters=args.max_iters,
        seed=args.seed,
    )
    result = optimize_angles(config)
    ceiling = quantum_ceiling(args.n, objective)

    thetas = result.best_angles.included_angles
    report = _base_report(args)
    report["best_value"] = result.best_value
    report["quantum_ceiling"] = ceiling
    report["best_index"] = result.best_index
    report["iterations"] = result.iterations
    report["converged"] = result.converged
    report["best_angles"] = [[p, q] for p, q in result.best_angles.angles]
    report["included_angles"] = list(thetas)
    report["cos_included_angles"] = [math.cos(t) for t in thetas]
    report["restart_values"] = [o.value for o in result.outcomes]
    report["restart_iterations"] = [o.iterations for o in result.outcomes]
    report["restart_evaluations"] = [o.evaluations for o in result.outcomes]
    # the ceiling reaches 2^(2n-2), whose ulp passes 1e-6 at n = 18: both residuals
    # are relative to it, and an overshoot is -gap
    gap = (ceiling - result.best_value) / ceiling
    cases = [
        ("within_quantum_ceiling", args.n, 1e-12, lambda: max(0.0, -gap)),
        ("reaches_quantum_ceiling", args.n, 1e-10, lambda: gap),
    ]
    return _run_checks(report, args, args.restarts, cases)


# ---- parser and entry point -----------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="merminlab",
        description="Verification lab for n-particle Bell operators.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def seed(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=_seed_type, default=0, help="RNG seed (unsigned 64-bit)")

    p = sub.add_parser("verify", help="squared-operator expansion residuals")
    p.add_argument("--n-min", type=int, default=3)
    p.add_argument("--n-max", type=int, default=6)
    p.add_argument("--trials", type=int, default=20, help="random settings per check")
    p.add_argument("--tol", type=_tol_type, default=1e-10)
    seed(p)
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("table", help="classical bound vs quantum maximum per n")
    p.add_argument("--max-n", type=int, default=8)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(handler=cmd_table)

    p = sub.add_parser("reduce", help="vanishing-commutator collapse check")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True, help="degenerate particle count")
    p.add_argument("--settings", help="settings JSON (planar or pairs) for the base pairs")
    p.add_argument("--tol", type=_tol_type, default=1e-10)
    seed(p)
    p.set_defaults(handler=cmd_reduce)

    p = sub.add_parser("spectrum", help="eigenvalue clusters for a settings file")
    p.add_argument("--settings", required=True, help="settings JSON (planar or pairs)")
    p.add_argument("--tol", type=_tol_type, default=1e-9)
    p.set_defaults(handler=cmd_spectrum)

    p = sub.add_parser("lhv", help="classical maximum with a witness assignment")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--family", choices=("mermin", "chsh"), default="mermin")
    p.set_defaults(handler=cmd_lhv)

    p = sub.add_parser("optimize", help="maximize the quantum value over planar angles")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--objective", choices=("spectral", "ghz"), default="spectral")
    p.add_argument("--restarts", type=int, default=8)
    p.add_argument("--max-iters", type=int, default=4000)
    seed(p)
    p.set_defaults(handler=cmd_optimize)

    for p in sub.choices.values():
        p.add_argument(
            "--no-timestamp",
            action="store_true",
            help="omit timestamp and wall times for byte-identical reruns",
        )
    return parser


#: built once per process; parse_args reads the parser and never changes it
_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        payload, code = args.handler(args)
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if isinstance(payload, str):
        print(payload)
    else:
        # one line per top-level key; json.dumps without indent runs the C encoder
        lines = (f"  {json.dumps(key)}: {json.dumps(value)}" for key, value in payload.items())
        print("{\n" + ",\n".join(lines) + "\n}")
    return code


if __name__ == "__main__":
    sys.exit(main())
