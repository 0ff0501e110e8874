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

Reports are JSON on stdout (CSV for ``table``).  With --no-timestamp the
timestamp and wall-time fields are omitted and reruns of the same command
line are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from datetime import datetime, timezone

import numpy as np

from .pauli import PauliOperator, ResourceLimitError, to_dense
from .settings import (
    PlanarSettings,
    load_settings,
    random_planar,
    random_settings,
)
from .bell import (
    chsh_square_expansion,
    default_reduction_spec,
    mermin_operator,
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


def _base_report(command: str, parameters: dict, args) -> dict:
    report = {"command": command}
    if not args.no_timestamp:
        report["timestamp"] = datetime.now(timezone.utc).isoformat()
    report["parameters"] = parameters
    return report


class _CheckList:
    """Accumulates named pass/fail checks with optional wall times."""

    def __init__(self, include_times: bool):
        self.include_times = include_times
        self.entries: list[dict] = []

    def run(self, name: str, n: int, trials: int, tol: float, fn) -> None:
        start = time.perf_counter()
        residual = float(fn())
        entry = {
            "name": name,
            "n": n,
            "trials": trials,
            "tol": tol,
            "max_residual": residual,
            "pass": bool(residual <= tol),
        }
        if self.include_times:
            entry["wall_time_s"] = round(time.perf_counter() - start, 6)
        self.entries.append(entry)

    @property
    def all_passed(self) -> bool:
        return all(entry["pass"] for entry in self.entries)


# ---- verify ---------------------------------------------------------------


def _planar_dense_residual(planar: PlanarSettings) -> float:
    """Closed-form diagonal vs the dense factored square: entrywise and off-diagonal."""
    square = to_dense(mermin_square(planar))
    idx = np.arange(len(square))
    square[idx, idx] -= planar_square_diagonal(planar)
    return float(np.max(np.abs(square)))


def cmd_verify(args) -> tuple[dict, int]:
    if not 3 <= args.n_min <= args.n_max <= 10:
        raise ValueError("need 3 <= --n-min <= --n-max <= 10")
    if args.trials < 1:
        raise ValueError("--trials must be >= 1")
    rng = np.random.default_rng(args.seed)
    checks = _CheckList(include_times=not args.no_timestamp)

    checks.run(
        "chsh_square_expansion",
        2,
        args.trials,
        args.tol,
        lambda: max(
            chsh_square_expansion(random_settings(2, rng)).residual
            for _ in range(args.trials)
        ),
    )
    checks.run(
        "three_particle_square_expansion",
        3,
        args.trials,
        args.tol,
        lambda: max(
            mermin_square_expansion(random_settings(3, rng)).residual
            for _ in range(args.trials)
        ),
    )
    for n in range(args.n_min, args.n_max + 1):
        checks.run(
            "mermin_square_expansion",
            n,
            args.trials,
            args.tol,
            lambda n=n: max(
                mermin_square_expansion(random_settings(n, rng)).residual
                for _ in range(args.trials)
            ),
        )
    for n in range(args.n_min, args.n_max + 1):
        checks.run(
            "planar_square_diagonal",
            n,
            args.trials,
            args.tol,
            lambda n=n: max(
                _planar_dense_residual(random_planar(n, rng)) for _ in range(args.trials)
            ),
        )

    report = _base_report(
        "verify",
        {
            "n_min": args.n_min,
            "n_max": args.n_max,
            "trials": args.trials,
            "seed": args.seed,
            "tol": args.tol,
        },
        args,
    )
    report["checks"] = checks.entries
    report["overall_pass"] = checks.all_passed
    return report, EXIT_PASS if checks.all_passed else EXIT_FAIL


# ---- table ----------------------------------------------------------------


def cmd_table(args) -> tuple[dict | str, int]:
    rows = violation_table(args.max_n)
    if args.format == "csv":
        lines = ["n,lhv_bound,quantum_max,ratio"]
        lines.extend(
            f"{r.n},{r.lhv_bound},{r.quantum_max},{r.ratio}" for r in rows
        )
        return "\n".join(lines), EXIT_PASS
    report = _base_report("table", {"max_n": args.max_n}, args)
    report["rows"] = [
        {
            "n": r.n,
            "lhv_bound": r.lhv_bound,
            "quantum_max": r.quantum_max,
            "ratio": r.ratio,
        }
        for r in rows
    ]
    report["overall_pass"] = True
    return report, EXIT_PASS


# ---- reduce ---------------------------------------------------------------


def cmd_reduce(args) -> tuple[dict, int]:
    rng = np.random.default_rng(args.seed)
    if args.settings:
        base = load_settings(args.settings)
        if not isinstance(base, PlanarSettings):
            raise ValueError("reduce needs planar base settings")
        if base.n != args.n:
            raise ValueError(f"settings file has n={base.n}, expected --n {args.n}")
    else:
        base = random_planar(args.n, rng)
    spec = default_reduction_spec(args.n, args.m)
    result = reduction_check(base, spec)

    checks = _CheckList(include_times=not args.no_timestamp)
    checks.run(
        "square_collapse_residual", args.n, 1, args.tol, lambda: result.residual
    )
    expected_mu = float(2**args.m)
    checks.run(
        "mu_max_ratio",
        args.n,
        1,
        1e-8,
        lambda: abs(result.mu_max_ratio - expected_mu) / expected_mu,
    )
    expected_abs = math.sqrt(expected_mu)
    checks.run(
        "max_abs_ratio",
        args.n,
        1,
        1e-8,
        lambda: abs(result.max_abs_ratio - expected_abs) / expected_abs,
    )

    report = _base_report(
        "reduce",
        {
            "n": args.n,
            "m": args.m,
            "seed": args.seed,
            "tol": args.tol,
            "settings": args.settings,
        },
        args,
    )
    report["reduction"] = {
        "factor": result.factor,
        "residual": result.residual,
        "mu_max_full": result.mu_max_full,
        "mu_max_reduced": result.mu_max_reduced,
        "mu_max_ratio": result.mu_max_ratio,
        "max_abs_full": result.max_abs_full,
        "max_abs_reduced": result.max_abs_reduced,
        "max_abs_ratio": result.max_abs_ratio,
        "degenerate_indices": list(result.degenerate_indices),
        "signs": list(result.signs),
        "perpendicular_survivor": result.perpendicular_survivor,
    }
    report["checks"] = checks.entries
    report["overall_pass"] = checks.all_passed
    return report, EXIT_PASS if checks.all_passed else EXIT_FAIL


# ---- spectrum -------------------------------------------------------------


#: spectrum lists every eigenvalue cluster (up to 2^n) and builds B's Pauli
#: terms (up to 3^n) for its Parseval check
SPECTRUM_LIMIT = 12


def _parseval_residual(eigenvalues: np.ndarray, op: PauliOperator) -> float:
    """tr(B^2) two ways: sum of squared eigenvalues against 2^n sum |c|^2.

    Relative to max(1, 2^n sum |c|^2): tr(B^2) grows to 2^(3n-2).
    """
    expected = 2.0**op.n * math.fsum(np.abs(op.coeffs) ** 2)
    return abs(math.fsum(eigenvalues**2) - expected) / max(1.0, expected)


def cmd_spectrum(args) -> tuple[dict, int]:
    settings = load_settings(args.settings)
    n = settings.n
    if n > SPECTRUM_LIMIT:
        raise ResourceLimitError(f"spectrum for n={n} exceeds limit {SPECTRUM_LIMIT}")
    op = mermin_operator(settings)
    spectral = SpectralReport.from_eigenvalues(mermin_spectrum(settings))
    closed_form = spectral_max_of_included_angles(settings.included_angles)

    checks = _CheckList(include_times=not args.no_timestamp)
    checks.run(
        "parseval_sum_of_squares",
        n,
        1,
        args.tol,
        lambda: _parseval_residual(spectral.eigenvalues, op),
    )
    checks.run(
        "spectral_max_closed_form",
        n,
        1,
        args.tol,
        lambda: abs(spectral.max_abs**2 - closed_form) / max(1.0, closed_form),
    )

    report = _base_report(
        "spectrum", {"settings": args.settings, "tol": args.tol}, args
    )
    report["n"] = n
    report["num_terms"] = op.num_terms
    report["max_abs_eigenvalue"] = spectral.max_abs
    report["clusters"] = [[value, count] for value, count in spectral.clusters]
    report["checks"] = checks.entries
    report["overall_pass"] = checks.all_passed
    return report, EXIT_PASS if checks.all_passed else EXIT_FAIL


# ---- lhv ------------------------------------------------------------------


def cmd_lhv(args) -> tuple[dict, int]:
    result = lhv_max(args.n, args.family)
    closed_form = 2 if args.family == "chsh" else 2 ** (args.n // 2)
    matches = result.max_value == closed_form
    report = _base_report("lhv", {"n": args.n, "family": args.family}, args)
    report["max_value"] = result.max_value
    report["closed_form"] = closed_form
    report["witness_a"] = list(result.witness_a)
    report["witness_a_prime"] = list(result.witness_a_prime)
    report["witness_encoding"] = result.witness_encoding
    report["overall_pass"] = matches
    return report, EXIT_PASS if matches else EXIT_FAIL


# ---- optimize -------------------------------------------------------------


def cmd_optimize(args) -> tuple[dict, int]:
    objective = {"spectral": "planar_spectral_max", "ghz": "ghz_expectation"}[
        args.objective
    ]
    config = OptimizeConfig(
        n=args.n,
        objective=objective,
        restarts=args.restarts,
        max_iters=args.max_iters,
        seed=args.seed,
    )
    result = optimize_angles(config)
    ceiling = quantum_ceiling(args.n, objective)

    checks = _CheckList(include_times=not args.no_timestamp)
    checks.run(
        "within_quantum_ceiling",
        args.n,
        args.restarts,
        1e-9,
        lambda: max(0.0, result.best_value - ceiling),
    )
    checks.run(
        "reaches_quantum_ceiling",
        args.n,
        args.restarts,
        1e-6,
        lambda: ceiling - result.best_value,
    )

    thetas = result.best_angles.included_angles
    report = _base_report(
        "optimize",
        {
            "n": args.n,
            "objective": objective,
            "restarts": args.restarts,
            "max_iters": args.max_iters,
            "seed": args.seed,
        },
        args,
    )
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
    report["checks"] = checks.entries
    report["overall_pass"] = checks.all_passed
    return report, EXIT_PASS if checks.all_passed else EXIT_FAIL


# ---- parser and entry point -----------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="merminlab",
        description="Verification lab for n-particle Bell operators.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=_seed_type, default=0, help="RNG seed (unsigned 64-bit)")
        p.add_argument(
            "--no-timestamp",
            action="store_true",
            help="omit timestamp and wall times for byte-identical reruns",
        )

    p = sub.add_parser("verify", help="squared-operator expansion residuals")
    p.add_argument("--n-min", type=int, default=3)
    p.add_argument("--n-max", type=int, default=6)
    p.add_argument("--trials", type=int, default=20, help="random settings per check")
    p.add_argument("--tol", type=_tol_type, default=1e-10)
    common(p)
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("table", help="classical bound vs quantum maximum per n")
    p.add_argument("--max-n", type=int, default=8)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    common(p)
    p.set_defaults(handler=cmd_table)

    p = sub.add_parser("reduce", help="vanishing-commutator collapse check")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True, help="degenerate particle count")
    p.add_argument("--settings", help="planar settings JSON for the base angles")
    p.add_argument("--tol", type=_tol_type, default=1e-10)
    common(p)
    p.set_defaults(handler=cmd_reduce)

    p = sub.add_parser("spectrum", help="eigenvalue clusters for a settings file")
    p.add_argument("--settings", required=True, help="settings JSON (planar or pairs)")
    p.add_argument("--tol", type=_tol_type, default=1e-9)
    common(p)
    p.set_defaults(handler=cmd_spectrum)

    p = sub.add_parser("lhv", help="classical maximum with a witness assignment")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--family", choices=("mermin", "chsh"), default="mermin")
    common(p)
    p.set_defaults(handler=cmd_lhv)

    p = sub.add_parser("optimize", help="maximize the quantum value over planar angles")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--objective", choices=("spectral", "ghz"), default="spectral")
    p.add_argument("--restarts", type=int, default=8)
    p.add_argument("--max-iters", type=int, default=4000)
    common(p)
    p.set_defaults(handler=cmd_optimize)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload, code = args.handler(args)
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, KeyError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if isinstance(payload, str):
        print(payload)
    else:
        print(json.dumps(payload, indent=2))
    return code


if __name__ == "__main__":
    sys.exit(main())
