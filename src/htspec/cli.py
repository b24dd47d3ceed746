"""Command-line front end.

Subcommands: ``sample`` (draw one matrix), ``spectrum`` (top eigenvalues of a
sampled or loaded matrix), ``experiment`` (replicated runs with verdicts),
``sweep`` (phase-diagram grid), and ``verify`` (exact-invariant suite).

Exit codes: 0 when the command succeeds and every verdict passes, 2 when a
report contains a failing verdict, 1 for usage or configuration errors.

Every option can also live in a config file (``--config``, INI format, one
section per subcommand).  A key is a flag name or its dest, with hyphens or
underscores (``master-seed`` or ``master_seed``; ``sv`` or ``sv_kind``; ``in``
or ``infile``); its value is converted and checked as the flag's would be.
Flags win over the file; unknown keys in a section and a non-empty
``[DEFAULT]`` section (whose keys would reach every subcommand) are rejected.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
from dataclasses import replace

from .limits import classify_regime
from .matrices import SparseMatrix, load_matrix_csv, norms, save_matrix_csv, top_entries
from .spectral import SOLVER_DENSE, SOLVER_LANCZOS, eig_dense_symmetric, top_eigs
from .tails import (
    HERMITIAN,
    RECTANGULAR,
    SV_CONSTANT,
    SV_LOG_POWER,
    EnsembleSpec,
    SparsitySpec,
    TailLaw,
    sample_matrix,
)
from .experiments import (
    RUN_KINDS,
    SOLVER_TOL,
    ExperimentConfig,
    run_experiment,
    run_invariant_suite,
    run_phase_sweep,
    sweep_to_csv,
)


class UsageError(Exception):
    """Bad flags or bad config; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse API
        raise UsageError(message)

    def apply_config(self, path: str, section: str) -> None:
        """Install the keys of ``[section]`` in the INI file ``path`` as this
        parser's defaults, converted and checked as the flags they name, so
        flags parsed afterwards still win."""
        cp = configparser.ConfigParser()
        if not cp.read(path):
            raise UsageError(f"config file not found or unreadable: {path}")
        if cp.defaults():
            raise UsageError(f"[DEFAULT] in {path}: its keys would reach every section")
        if not cp.has_section(section):
            return
        actions = {}
        for action in self._actions:
            if action.dest != "help":
                for name in (action.dest, action.option_strings[0].lstrip("-")):
                    actions[name.replace("-", "_")] = action
        defaults = {}
        for key, raw in cp.items(section):
            action = actions.get(key.replace("-", "_"))
            if action is None:
                raise UsageError(f"unknown key {key!r} in config section [{section}]")
            try:
                if isinstance(action, argparse.BooleanOptionalAction):
                    value = _bool(raw)
                else:
                    value = action.type(raw) if action.type else raw
                if action.choices is not None and value not in action.choices:
                    raise ValueError(f"must be one of {tuple(action.choices)}: {raw!r}")
            except ValueError as exc:
                raise UsageError(f"bad value for {key!r} in [{section}]: {exc}") from exc
            defaults[action.dest] = value
        self.set_defaults(**defaults)


def _bool(raw: str) -> bool:
    value = raw.strip().lower()
    if value in ("1", "true", "yes", "on"):
        return True
    if value in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _floats(raw: str) -> tuple[float, ...]:
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise ValueError(f"empty list: {raw!r}")
    return tuple(float(p) for p in parts)


def _grid(raw: str) -> tuple[float, ...]:
    """Either ``lo:hi:step`` or a comma-separated list."""
    if ":" in raw:
        parts = raw.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid must be lo:hi:step, got {raw!r}")
        lo, hi, step = (float(p) for p in parts)
        if step <= 0 or hi < lo:
            raise ValueError(f"grid needs step > 0 and hi >= lo: {raw!r}")
        values = []
        x = lo
        while x <= hi + 1e-9 * max(1.0, abs(hi)):
            values.append(round(x, 12))
            x += step
        return tuple(values)
    return _floats(raw)


# The dests of the options _add_ensemble_args gives a single-matrix command.
_ENSEMBLE_DESTS = "alpha mu n rho shape seed sv_kind sv_c sv_beta support_min standardize".split()


def _add_ensemble_args(sub: argparse.ArgumentParser, single_matrix: bool = True) -> None:
    """Law and mask options; a single-matrix command also takes a shape and a seed."""
    sub.add_argument("--alpha", type=float, help="tail exponent")
    sub.add_argument("--mu", type=float, help="sparsity exponent; mask density n^(mu-1)")
    sub.add_argument("--n", type=int, help="column dimension")
    sub.add_argument("--rho", type=float, default=1.0, help="aspect ratio p/n")
    if single_matrix:
        sub.add_argument("--shape", choices=(RECTANGULAR, HERMITIAN), default=RECTANGULAR)
        sub.add_argument("--seed", type=int, default=0)
    sub.add_argument(
        "--sv", dest="sv_kind", choices=(SV_CONSTANT, SV_LOG_POWER), default=SV_CONSTANT
    )
    sub.add_argument("--sv-c", type=float, default=1.0)
    sub.add_argument("--sv-beta", type=float, default=0.0)
    sub.add_argument("--support-min", type=float, default=1.0)
    sub.add_argument(
        "--standardize", action=argparse.BooleanOptionalAction,
        help="standardize the law (default: off; experiment: on exactly where the run requires it)",
    )


def build_parser() -> _Parser:
    """The ``htspec`` parser; ``parser.commands`` maps each subcommand to its parser."""
    parser = _Parser(
        prog="htspec",
        description="Sparse heavy-tailed random matrices: sampling, spectra, and phase-transition experiments.",
    )
    parser.add_argument("--config", help="INI file with one section per subcommand")
    subs = parser.add_subparsers(dest="command", parser_class=_Parser)

    sample = subs.add_parser("sample", help="draw one matrix and summarize it")
    _add_ensemble_args(sample)
    sample.add_argument("--out", help="write the matrix as CSV: a shape line, then i,j,value")

    spectrum = subs.add_parser("spectrum", help="top eigenvalues of one matrix")
    _add_ensemble_args(spectrum)
    spectrum.add_argument("--k", type=int, default=5)
    spectrum.add_argument(
        "--solver", choices=(SOLVER_LANCZOS, SOLVER_DENSE), default=SOLVER_LANCZOS
    )
    spectrum.add_argument(
        "--in", dest="infile", help="load a matrix written by sample --out instead of sampling"
    )
    spectrum.add_argument("--out", help="write the result as JSON")

    experiment = subs.add_parser("experiment", help="replicated run with verdicts")
    experiment.add_argument("--kind", choices=tuple(RUN_KINDS))
    _add_ensemble_args(experiment, single_matrix=False)
    experiment.add_argument("--replicates", type=int, default=20)
    experiment.add_argument("--top-k", type=int, default=5)
    experiment.add_argument("--master-seed", type=int, default=0)
    experiment.add_argument("--gamma", type=float, help="truncation level exponent")
    experiment.add_argument("--report", help="write the full report as JSON")
    experiment.add_argument("--csv", help="write the per-replicate summary as CSV")
    experiment.add_argument(
        "--timing", action=argparse.BooleanOptionalAction, default=True,
        help="include timing fields in the JSON report",
    )

    sweep = subs.add_parser("sweep", help="median diagnostics over an (alpha, mu) grid")
    sweep.add_argument("--alphas", type=_grid, help="lo:hi:step or comma list")
    sweep.add_argument("--mus", type=_grid, help="lo:hi:step or comma list")
    sweep.add_argument("--n", type=int)
    sweep.add_argument("--rho", type=float, default=1.0)
    sweep.add_argument("--replicates", type=int, default=5)
    sweep.add_argument("--master-seed", type=int, default=0)
    sweep.add_argument("--out", help="write the grid as CSV")

    verify = subs.add_parser("verify", help="run the exact-invariant suite")
    verify.add_argument("--seed", type=int, default=20240801)
    verify.add_argument("--instances", type=int, default=500)
    verify.add_argument("--lemma-instances", type=int, default=100)
    verify.add_argument("--report", help="write the check table as JSON")

    parser.commands = dict(subs.choices)
    return parser


def _require(args: argparse.Namespace, names: tuple[str, ...]) -> None:
    missing = [n for n in names if getattr(args, n) is None]
    if missing:
        flags = ", ".join("--" + n.replace("_", "-") for n in missing)
        raise UsageError(f"missing required options: {flags}")


def _law(args: argparse.Namespace) -> TailLaw:
    """The entry law of the ``--alpha``, ``--sv*``, ``--support-min`` and
    ``--standardize`` flags; an unset ``--standardize`` is off."""
    return TailLaw(
        alpha=args.alpha,
        sv_kind=args.sv_kind,
        sv_c=args.sv_c,
        sv_beta=args.sv_beta,
        support_min=args.support_min,
        standardize=bool(args.standardize),
    )


def _sample(args: argparse.Namespace) -> SparseMatrix:
    """Draw the matrix that the ensemble flags of ``sample``/``spectrum`` describe."""
    _require(args, ("alpha", "mu", "n"))
    spec = EnsembleSpec(
        shape=args.shape, n=args.n, law=_law(args), sparsity=SparsitySpec.bernoulli(args.mu),
        seed=args.seed, rho=args.rho,
    )
    return sample_matrix(spec)


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"wrote {path}")


def _fmt(value) -> str:
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _cmd_sample(args: argparse.Namespace) -> int:
    m = _sample(args)
    inf_n, one_n = norms(m)
    entries, _ = top_entries(m, 1)
    top = entries[0].magnitude if entries else 0.0
    if args.out:
        save_matrix_csv(m, args.out)
        print(f"wrote {args.out}")
    print(
        f"shape={m.rows}x{m.cols} nnz={m.nnz} norm_inf={inf_n:.6g} "
        f"norm_one={one_n:.6g} top_entry={top:.6g}"
    )
    return 0


def _cmd_spectrum(args: argparse.Namespace) -> int:
    if args.k < 1:
        raise UsageError(f"--k must be >= 1, got {args.k}")
    if args.infile is not None:
        given = [
            action.option_strings[0] for action in build_parser().commands["spectrum"]._actions
            if action.dest in _ENSEMBLE_DESTS and getattr(args, action.dest) != action.default
        ]
        if given:
            raise UsageError(f"--in reads its matrix from the file; drop {', '.join(given)}")
    m = load_matrix_csv(args.infile) if args.infile is not None else _sample(args)
    if args.solver == SOLVER_DENSE:
        # The whole spectrum has m.rows values, so any k up to it, 50 or more, is served.
        k = args.k
        if k > m.rows:
            raise UsageError(f"--k {k} exceeds the matrix's dimension {m.rows}")
        dense = m.to_dense()
        result = eig_dense_symmetric(dense if m.symmetric else dense @ dense.T)
        result = replace(
            result,
            eigenvalues=result.eigenvalues[:k],
            eigenvectors=result.eigenvectors[:, :k],
            residual_norms=result.residual_norms[:k],
        )
    else:
        result = top_eigs(m, args.k, tol=SOLVER_TOL, seed=0)
    for value, resid in zip(result.eigenvalues, result.residual_norms):
        print(f"{float(value)!r} residual={resid:.3e}")
    if not result.converged:
        print("warning: solver did not reach the requested tolerance", file=sys.stderr)
    if args.out:
        _write_json(args.out, result.to_json_dict())
    return 0


def _print_verdicts(verdicts) -> None:
    for v in verdicts:
        status = "PASS" if v["pass"] else "FAIL"
        print(f"[{status}] {v['criterion']}: observed={_fmt(v['observed'])} bound={_fmt(v['bound'])}")
    passed = sum(1 for v in verdicts if v["pass"])
    print(f"{passed}/{len(verdicts)} criteria passed")


def _cmd_experiment(args: argparse.Namespace) -> int:
    _require(args, ("kind", "alpha", "mu", "n"))
    run = RUN_KINDS[args.kind]
    if args.standardize is None:
        args.standardize = run.standardizes(classify_regime(args.alpha, args.mu))
    cfg = ExperimentConfig(
        law=_law(args),
        sparsity=SparsitySpec.bernoulli(args.mu),
        n=args.n,
        rho=args.rho,
        shape=run.shape,
        replicates=args.replicates,
        top_k=args.top_k,
        master_seed=args.master_seed,
    )
    report = run_experiment(cfg, args.kind, gamma=args.gamma)
    _print_verdicts(report.verdicts)
    if args.report:
        report.save_json(args.report, include_timing=args.timing)
        print(f"wrote {args.report}")
    if args.csv:
        report.save_csv(args.csv)
        print(f"wrote {args.csv}")
    return 0 if report.passed() else 2


def _cmd_sweep(args: argparse.Namespace) -> int:
    _require(args, ("alphas", "mus", "n"))
    sweep = run_phase_sweep(
        args.alphas,
        args.mus,
        n=args.n,
        rho=args.rho,
        replicates=args.replicates,
        master_seed=args.master_seed,
    )
    for cell in sweep["cells"]:
        print(
            f"alpha={cell['alpha']:g} mu={cell['mu']:g} regime={cell['regime']} "
            f"ratio_entry={_fmt(cell['median_ratio_entry'])} "
            f"ratio_edge={_fmt(cell['median_ratio_edge'])} "
            f"loc_dist={_fmt(cell['median_loc_dist'])}"
        )
    if args.out:
        sweep_to_csv(sweep, args.out)
        print(f"wrote {args.out}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    result = run_invariant_suite(
        seed=args.seed, instances=args.instances, lemma_instances=args.lemma_instances
    )
    for check in result["checks"]:
        status = "PASS" if check["pass"] else "FAIL"
        print(
            f"[{status}] {check['name']}: {check['violations']} violations "
            f"in {check['instances']} instances"
        )
    print(f"elapsed {result['elapsed_s']:.1f}s")
    if args.report:
        _write_json(args.report, {k: v for k, v in result.items() if k != "elapsed_s"})
    return 0 if result["pass"] else 2


_DISPATCH = {
    "sample": _cmd_sample,
    "spectrum": _cmd_spectrum,
    "experiment": _cmd_experiment,
    "sweep": _cmd_sweep,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("a subcommand is required (sample, spectrum, experiment, sweep, verify)")
        if args.config is not None:
            parser.commands[args.command].apply_config(args.config, args.command)
            args = parser.parse_args(argv)
        return _DISPATCH[args.command](args)
    except (UsageError, ValueError, OSError, configparser.Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)


if __name__ == "__main__":
    raise SystemExit(main())
