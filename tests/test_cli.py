import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import htspec
from htspec import cli
from htspec.cli import UsageError, _grid, build_parser, main


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# usage errors and help


def test_no_subcommand_is_usage_error(capsys):
    code, _, err = run(capsys, [])
    assert code == 1
    assert "error:" in err


def test_missing_required_options(capsys):
    code, _, err = run(capsys, ["sample"])
    assert code == 1
    assert "--alpha" in err and "--mu" in err and "--n" in err


def test_unknown_flag_and_bad_subcommand(capsys):
    assert run(capsys, ["sample", "--bogus"])[0] == 1
    assert run(capsys, ["bogus"])[0] == 1


def test_help_exits_zero(capsys):
    assert run(capsys, ["--help"])[0] == 0
    assert run(capsys, ["experiment", "--help"])[0] == 0


def test_grid_parsing():
    assert _grid("1:2:0.5") == (1.0, 1.5, 2.0)
    assert _grid("0.8,1.6") == (0.8, 1.6)
    with pytest.raises(ValueError):
        _grid("2:1:0.5")
    with pytest.raises(ValueError):
        _grid("1:2:0")
    with pytest.raises(ValueError):
        _grid("1:2")


def test_parser_covers_all_subcommands():
    parser = build_parser()
    with pytest.raises(UsageError):
        parser.parse_args(["sample", "--shape", "triangular"])


# ---------------------------------------------------------------------------
# sample


def test_sample_summary_line(capsys):
    code, out, _ = run(
        capsys, ["sample", "--alpha", "1", "--mu", "1", "--n", "30", "--seed", "5"]
    )
    assert code == 0
    assert "shape=30x30" in out
    assert "nnz=" in out and "top_entry=" in out


def test_sample_writes_csv(tmp_path, capsys):
    path = tmp_path / "m.csv"
    code, out, _ = run(
        capsys,
        ["sample", "--alpha", "1", "--mu", "0.5", "--n", "25", "--out", str(path)],
    )
    assert code == 0
    assert f"wrote {path}" in out
    lines = path.read_text().strip().split("\n")
    assert lines[:2] == ["# rows=25 cols=25 symmetric=false", "i,j,value"]
    i, j, value = lines[2].split(",")
    assert 0 <= int(i) < 25 and 0 <= int(j) < 25
    float(value)


def test_sample_rejects_bad_law(capsys):
    code, _, err = run(capsys, ["sample", "--alpha", "-1", "--mu", "1", "--n", "10"])
    assert code == 1
    assert "error:" in err


# ---------------------------------------------------------------------------
# spectrum


def test_spectrum_sampled(capsys):
    code, out, _ = run(
        capsys,
        ["spectrum", "--alpha", "1", "--mu", "1", "--n", "40", "--k", "3"],
    )
    assert code == 0
    lines = [l for l in out.strip().split("\n") if "residual=" in l]
    assert len(lines) == 3
    values = [float(l.split()[0]) for l in lines]
    assert values == sorted(values, reverse=True)


def test_spectrum_roundtrip_csv_and_solver_agreement(tmp_path, capsys):
    path = tmp_path / "m.csv"
    assert run(
        capsys,
        ["sample", "--alpha", "1", "--mu", "1", "--n", "35", "--seed", "9",
         "--out", str(path)],
    )[0] == 0

    code, out_lanczos, _ = run(
        capsys, ["spectrum", "--in", str(path), "--k", "2"]
    )
    assert code == 0
    code, out_dense, _ = run(
        capsys, ["spectrum", "--in", str(path), "--k", "2", "--solver", "dense"]
    )
    assert code == 0
    lam_l = [float(l.split()[0]) for l in out_lanczos.strip().split("\n") if "residual=" in l]
    lam_d = [float(l.split()[0]) for l in out_dense.strip().split("\n") if "residual=" in l]
    for a, b in zip(lam_l, lam_d):
        assert a == pytest.approx(b, rel=1e-8)


def test_spectrum_in_refuses_ensemble_options(tmp_path, capsys):
    # The file fixes the matrix, so an ensemble option with --in would be
    # ignored; it is refused, and every such option is named.
    path = tmp_path / "m.csv"
    sample = ["sample", "--alpha", "1", "--mu", "1", "--n", "20", "--out", str(path)]
    assert run(capsys, sample)[0] == 0
    loaded = ["spectrum", "--in", str(path), "--k", "2"]
    code, plain, _ = run(capsys, loaded)
    assert code == 0
    flags = ["--alpha", "3", "--mu", "1", "--n", "99", "--seed", "8", "--shape", "hermitian"]
    code, out, err = run(capsys, [*loaded, *flags])
    assert code == 1 and "residual=" not in out
    assert err.split("drop ")[1].split() == ["--alpha,", "--mu,", "--n,", "--shape,", "--seed"]
    for flag in (["--rho", "0.5"], ["--sv", "log_power"], ["--sv-c", "2"], ["--sv-beta", "1"],
                 ["--support-min", "2"], ["--standardize"], ["--no-standardize"]):
        code, _, err = run(capsys, [*loaded, *flag])
        assert code == 1 and flag[0].replace("no-", "") in err, flag
    # A flag left at its default value changes nothing and is accepted.
    assert run(capsys, [*loaded, "--rho", "1"])[:2] == (0, plain)


def test_spectrum_json_output(tmp_path, capsys):
    out_path = tmp_path / "spec.json"
    code, out, _ = run(
        capsys,
        ["spectrum", "--alpha", "1", "--mu", "1", "--n", "30", "--k", "2",
         "--out", str(out_path)],
    )
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert len(payload["eigenvalues"]) == 2
    assert payload["solver"] == "lanczos"
    assert len(payload["residuals"]) == 2
    assert payload["iterations"] >= 2
    assert payload["restarts"] == 0
    assert payload["converged"] is True


def test_spectrum_k_too_large(capsys):
    code, _, err = run(
        capsys, ["spectrum", "--alpha", "1", "--mu", "1", "--n", "30", "--k", "31"]
    )
    assert code == 1
    assert "error:" in err


def test_spectrum_dense_refuses_k_beyond_the_dimension(tmp_path, capsys):
    # The dense route computes the whole spectrum, so it serves any k up to
    # the matrix's dimension, 50 or more, and refuses a larger one rather
    # than print fewer values than asked.
    sampled = ["spectrum", "--alpha", "1", "--mu", "1", "--n", "30", "--rho", "0.5"]
    code, out, err = run(capsys, [*sampled, "--k", "20", "--solver", "dense"])
    assert (code, out) == (1, "") and "exceeds the matrix's dimension 15" in err
    code, out, _ = run(capsys, [*sampled, "--k", "15", "--solver", "dense"])
    assert code == 0 and out.count("residual=") == 15
    path = tmp_path / "m.csv"
    sample = ["sample", "--alpha", "1", "--mu", "1", "--n", "60", "--out", str(path)]
    assert run(capsys, sample)[0] == 0
    loaded = ["spectrum", "--in", str(path), "--solver", "dense"]
    code, out, err = run(capsys, [*loaded, "--k", "61"])
    assert (code, out) == (1, "") and "exceeds the matrix's dimension 60" in err
    code, out, _ = run(capsys, [*loaded, "--k", "60"])
    assert code == 0 and out.count("residual=") == 60


@pytest.mark.parametrize("solver", ["lanczos", "dense"])
@pytest.mark.parametrize("k", ["0", "-1"])
def test_spectrum_k_below_one_rejected(capsys, solver, k):
    code, out, err = run(
        capsys,
        ["spectrum", "--alpha", "1", "--mu", "1", "--n", "6", "--solver", solver, "--k", k],
    )
    assert code == 1
    assert out == ""
    assert "error:" in err


def test_spectrum_missing_file(capsys):
    code, _, err = run(capsys, ["spectrum", "--in", "/nonexistent/m.csv"])
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize("shape", ["rectangular", "hermitian"])
def test_spectrum_of_a_saved_sample_matches_the_sample(shape, tmp_path, capsys):
    # At mu = 0 most of these samples have empty trailing rows or columns,
    # which the file keeps through its description line.
    path = tmp_path / "m.csv"
    for seed in range(1, 7):
        flags = ["--alpha", "1", "--mu", "0", "--n", "40", "--seed", str(seed), "--shape", shape]
        assert run(capsys, ["sample", *flags, "--out", str(path)])[0] == 0
        for solver in ("lanczos", "dense"):
            tail = ["--solver", solver, "--k", "3"]
            sampled = run(capsys, ["spectrum", *flags, *tail])
            loaded = run(capsys, ["spectrum", "--in", str(path), *tail])
            assert loaded == sampled and sampled[0] == 0, (seed, solver)


@pytest.mark.parametrize(
    "text",
    [
        "i,j,value\n0,0,1.0\n",
        "# rows=2 cols=2 symmetric=false\ni,j,value\n2,0,1.0\n",
        "# rows=2 cols=3 symmetric=true\ni,j,value\n0,0,1.0\n",
    ],
    ids=["no-description", "outside-shape", "symmetric-not-square"],
)
def test_spectrum_refuses_a_file_that_does_not_state_its_matrix(text, tmp_path, capsys):
    path = tmp_path / "m.csv"
    path.write_text(text)
    code, out, err = run(capsys, ["spectrum", "--in", str(path)])
    assert code == 1 and out == ""
    assert err.startswith("error:")


# ---------------------------------------------------------------------------
# experiment


def test_experiment_three_replicates_always_fails_ks(capsys):
    # with 3 samples the KS distance is at least 1/6, above the 0.12 bound,
    # so the failing-verdict exit code is exercised deterministically
    code, out, _ = run(
        capsys,
        ["experiment", "--kind", "poisson", "--alpha", "1", "--mu", "1",
         "--n", "40", "--replicates", "3", "--top-k", "2"],
    )
    assert code == 2
    assert "[FAIL]" in out
    assert "criteria passed" in out


def test_experiment_report_and_csv(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    csv_path = tmp_path / "report.csv"
    code, out, _ = run(
        capsys,
        ["experiment", "--kind", "poisson", "--alpha", "1", "--mu", "1",
         "--n", "40", "--replicates", "3", "--top-k", "2",
         "--report", str(report_path), "--csv", str(csv_path), "--no-timing"],
    )
    assert code == 2
    payload = json.loads(report_path.read_text())
    assert payload["kind"] == "poisson"
    assert "elapsed_s" not in payload
    assert len(payload["replicates"]) == 3
    header = csv_path.read_text().split("\n", 1)[0]
    assert header.startswith("r,lambda1")


def test_experiment_truncation_flags(tmp_path, capsys):
    code, out, _ = run(
        capsys,
        ["experiment", "--kind", "truncation", "--alpha", "8", "--mu", "1",
         "--n", "50", "--replicates", "3", "--gamma", "0.2"],
    )
    assert code in (0, 2)
    assert "criteria passed" in out


def test_experiment_gamma_refused_outside_truncation(capsys):
    # Only the truncation kind takes --gamma; elsewhere it would go unused.
    for kind, alpha in (("poisson", "1"), ("edge", "8"), ("hermitian", "1")):
        code, out, err = run(
            capsys,
            ["experiment", "--kind", kind, "--alpha", alpha, "--mu", "1",
             "--n", "40", "--replicates", "3", "--gamma", "0.3"],
        )
        assert code == 1 and out == ""
        assert "takes no truncation exponent gamma" in err


def test_experiment_regime_mismatch_is_config_error(capsys):
    code, _, err = run(
        capsys,
        ["experiment", "--kind", "edge", "--alpha", "1", "--mu", "1",
         "--n", "40", "--replicates", "2"],
    )
    assert code == 1
    # alpha = 1 is Poissonian, so the edge kind does not standardize and its
    # guard names the regime; the run is refused before any sampling
    assert "edge regime" in err and "classifies as poissonian" in err


def test_experiment_standardize_defaults_by_kind(tmp_path, capsys):
    # edge kind standardizes automatically; the sampled law records it
    report_path = tmp_path / "edge.json"
    code, _, _ = run(
        capsys,
        ["experiment", "--kind", "edge", "--alpha", "8", "--mu", "1",
         "--n", "40", "--replicates", "2", "--top-k", "2",
         "--report", str(report_path)],
    )
    assert code in (0, 2)
    payload = json.loads(report_path.read_text())
    assert payload["config"]["law"]["standardize"] is True
    # hermitian standardizes exactly in the edge regime, as its guard requires
    for alpha, standardized in (("8", True), ("1", False)):
        code, _, _ = run(
            capsys,
            ["experiment", "--kind", "hermitian", "--alpha", alpha, "--mu", "1",
             "--n", "40", "--replicates", "2", "--top-k", "2",
             "--report", str(report_path)],
        )
        assert code in (0, 2)
        payload = json.loads(report_path.read_text())
        assert payload["config"]["law"]["standardize"] is standardized


# ---------------------------------------------------------------------------
# config files


def write_config(tmp_path, text):
    path = tmp_path / "run.ini"
    path.write_text(text)
    return str(path)


def test_config_supplies_options(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "[sample]\nalpha = 1.0\nmu = 1.0\nn = 30\nseed = 5\n",
    )
    code, out, _ = run(capsys, ["--config", cfg, "sample"])
    assert code == 0
    assert "shape=30x30" in out


def test_config_flags_win(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "[sample]\nalpha = 1.0\nmu = 1.0\nn = 30\n",
    )
    code, out, _ = run(capsys, ["--config", cfg, "sample", "--n", "20"])
    assert code == 0
    assert "shape=20x20" in out


def test_config_unknown_key_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, "[sample]\nalpha = 1.0\nwavelength = 7\n")
    code, _, err = run(capsys, ["--config", cfg, "sample"])
    assert code == 1
    assert "wavelength" in err


def test_config_bad_value_rejected(tmp_path, capsys):
    for key, text in (
        ("alpha", "[sample]\nalpha = fast\nmu = 1.0\nn = 30\n"),
        ("shape", "[sample]\nalpha = 1.0\nmu = 1.0\nn = 30\nshape = triangular\n"),
    ):
        cfg = write_config(tmp_path, text)
        code, _, err = run(capsys, ["--config", cfg, "sample"])
        assert code == 1
        assert f"bad value for {key!r} in [sample]" in err


def test_config_missing_file(capsys):
    code, _, err = run(capsys, ["--config", "/nonexistent.ini", "sample"])
    assert code == 1
    assert "config" in err


def test_config_malformed_file(tmp_path, capsys):
    # no section header, a repeated key, a bad interpolation
    for text in ("alpha = 1\n", "[sample]\nn = 1\nn = 2\n", "[sample]\nout = 5%.csv\n"):
        cfg = write_config(tmp_path, text)
        code, _, err = run(capsys, ["--config", cfg, "sample"])
        assert code == 1
        assert err.startswith("error:")


def test_config_key_aliases(tmp_path, capsys):
    # "sv" names the law kind and "in" names the input file, matching flags
    matrix = tmp_path / "m.csv"
    assert run(
        capsys,
        ["sample", "--alpha", "1", "--mu", "1", "--n", "25", "--sv", "log_power",
         "--sv-beta", "1.0", "--out", str(matrix)],
    )[0] == 0
    cfg = write_config(tmp_path, f"[spectrum]\nin = {matrix}\nk = 2\n")
    code, out, _ = run(capsys, ["--config", cfg, "spectrum"])
    assert code == 0
    assert sum("residual=" in l for l in out.split("\n")) == 2


# Each case gives the same values once as flags and once as an INI section;
# the INI keys mix flag names and dests, hyphens and underscores.
FLAGS_AND_INI = {
    "sample": (
        ["--alpha", "1.5", "--mu", "0.5", "--n", "30", "--shape", "hermitian",
         "--sv", "log_power", "--sv-beta", "1", "--standardize", "--seed", "7"],
        "alpha = 1.5\nmu = 0.5\nn = 30\nshape = hermitian\nsv = log_power\n"
        "sv_beta = 1\nstandardize = yes\nseed = 7\n",
    ),
    "spectrum-in": (
        ["--in", "m.csv", "--k", "2", "--solver", "dense", "--no-standardize",
         "--out", "s.json"],
        "in = m.csv\nk = 2\nsolver = dense\nstandardize = no\nout = s.json\n",
    ),
    "spectrum-dests": (
        ["--in", "m.csv", "--sv", "log_power", "--sv-c", "2", "--standardize"],
        "infile = m.csv\nsv_kind = log_power\nsv-c = 2\nstandardize = on\n",
    ),
    "experiment": (
        ["--kind", "poisson", "--alpha", "1", "--mu", "1", "--n", "40",
         "--replicates", "3", "--support-min", "2", "--master-seed", "9",
         "--no-timing", "--top-k", "2"],
        "kind = poisson\nalpha = 1\nmu = 1\nn = 40\nreplicates = 3\n"
        "support_min = 2\nmaster-seed = 9\ntiming = no\ntop_k = 2\n",
    ),
    "experiment-truncation": (
        ["--kind", "truncation", "--alpha", "8", "--mu", "1", "--n", "50",
         "--gamma", "0.2", "--standardize"],
        "kind = truncation\nalpha = 8\nmu = 1\nn = 50\ngamma = 0.2\nstandardize = true\n",
    ),
    "sweep": (
        ["--alphas", "1:2:0.5", "--mus", "0.5,1", "--n", "30", "--replicates", "2",
         "--master-seed", "4", "--out", "sweep.csv"],
        "alphas = 1:2:0.5\nmus = 0.5, 1\nn = 30\nreplicates = 2\n"
        "master_seed = 4\nout = sweep.csv\n",
    ),
    "verify": (
        ["--seed", "3", "--instances", "5", "--lemma-instances", "2",
         "--report", "v.json"],
        "seed = 3\ninstances = 5\nlemma_instances = 2\nreport = v.json\n",
    ),
}


def received(monkeypatch, argv):
    """The Namespace the subcommand is dispatched with, ``config`` dropped."""
    seen = []
    for command in list(cli._DISPATCH):
        monkeypatch.setitem(cli._DISPATCH, command, lambda args: seen.append(args) or 0)
    assert main(argv) == 0
    (args,) = seen
    return {k: v for k, v in vars(args).items() if k != "config"}


@pytest.mark.parametrize("case", sorted(FLAGS_AND_INI))
def test_config_section_parses_like_flags(case, tmp_path, monkeypatch):
    command = case.split("-")[0]
    flags, section = FLAGS_AND_INI[case]
    cfg = write_config(tmp_path, f"[{command}]\n{section}")
    from_flags = received(monkeypatch, [command, *flags])
    from_file = received(monkeypatch, ["--config", cfg, command])
    assert from_file == from_flags


def test_config_section_scoped_to_command(tmp_path, capsys):
    # a [sweep] section does not leak into the sample command
    cfg = write_config(tmp_path, "[sweep]\nn = 10\n")
    code, _, err = run(capsys, ["--config", cfg, "sample"])
    assert code == 1
    assert "--alpha" in err


def test_config_default_section_rejected(tmp_path, capsys):
    # configparser merges [DEFAULT] into every section, so its keys would
    # reach commands that do not take them
    cfg = write_config(
        tmp_path, "[DEFAULT]\nseed = 5\n[sample]\nalpha = 1.0\nmu = 1.0\nn = 30\n"
    )
    code, _, err = run(capsys, ["--config", cfg, "sample"])
    assert code == 1
    assert "[DEFAULT]" in err


def test_esd_bins_removed(tmp_path, capsys):
    flags = ["experiment", "--kind", "poisson", "--alpha", "1", "--mu", "1",
             "--n", "40", "--replicates", "2"]
    code, _, err = run(capsys, [*flags, "--esd-bins", "64"])
    assert code == 1
    assert "--esd-bins" in err
    cfg = write_config(tmp_path, "[experiment]\nesd_bins = 64\n")
    code, _, err = run(capsys, ["--config", cfg, *flags])
    assert code == 1
    assert "esd_bins" in err


def test_mask_options_removed(tmp_path, capsys):
    # The Bernoulli mask is the only mask: --mu alone selects it.
    flags = ["sample", "--alpha", "1", "--mu", "1", "--n", "10"]
    code, _, err = run(capsys, [*flags, "--sparsity", "band", "--halfwidth", "2"])
    assert code == 1
    assert "--sparsity" in err
    for key in ("sparsity = band", "halfwidth = 2", "count = 3"):
        cfg = write_config(tmp_path, f"[sample]\n{key}\n")
        code, _, err = run(capsys, ["--config", cfg, *flags])
        assert code == 1
        assert f"unknown key {key.split()[0]!r}" in err


def test_thresholds_option_removed(tmp_path, capsys):
    # The count thresholds are fixed at 0.5, 1 and 2.
    flags = ["experiment", "--kind", "poisson", "--alpha", "1", "--mu", "1",
             "--n", "40", "--replicates", "2"]
    code, _, err = run(capsys, [*flags, "--thresholds", "0.5,2"])
    assert code == 1
    assert "--thresholds" in err
    cfg = write_config(tmp_path, "[experiment]\nthresholds = 0.5, 2\n")
    code, _, err = run(capsys, ["--config", cfg, *flags])
    assert code == 1
    assert "unknown key 'thresholds'" in err


@pytest.mark.parametrize(
    "command, flag, key",
    [
        ("experiment", ["--solver-tol", "1e-9"], "solver_tol = 1e-9"),
        ("experiment", ["--kappa", "2"], "kappa = 2"),
        ("spectrum", ["--tol", "1e-9"], "tol = 1e-9"),
        ("spectrum", ["--solver-seed", "3"], "solver_seed = 3"),
        ("spectrum", ["--symmetric"], "symmetric = yes"),
        ("spectrum", ["--no-symmetric"], "symmetric = no"),
        ("experiment", ["--gamma-prime", "0.5"], "gamma_prime = 0.5"),
    ],
)
def test_solver_kappa_and_file_options_removed(command, flag, key, tmp_path, capsys):
    # One solver tolerance, Lanczos seed 0 for spectrum, kappa = 1.5, gamma'
    # from the truncation window, and matrix files that state their own shape
    # and symmetry.
    flags = {
        "experiment": ["experiment", "--kind", "truncation", "--alpha", "8", "--mu", "1",
                       "--n", "40", "--replicates", "2"],
        "spectrum": ["spectrum", "--alpha", "1", "--mu", "1", "--n", "10"],
    }[command]
    code, out, err = run(capsys, [*flags, *flag])
    assert code == 1 and out == ""
    assert flag[0] in err
    cfg = write_config(tmp_path, f"[{command}]\n{key}\n")
    code, out, err = run(capsys, ["--config", cfg, *flags])
    assert code == 1 and out == ""
    assert f"unknown key {key.split()[0]!r}" in err


# ---------------------------------------------------------------------------
# sweep and verify


def test_sweep_grid_and_csv(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code, out, _ = run(
        capsys,
        ["sweep", "--alphas", "1:2:0.5", "--mus", "1.0", "--n", "30",
         "--replicates", "2", "--out", str(out_path)],
    )
    assert code == 0
    assert out.count("alpha=") == 3
    lines = out_path.read_text().strip().split("\n")
    assert lines[0].startswith("alpha,mu,regime")
    assert len(lines) == 4


def test_sweep_bad_grid(capsys):
    code, _, err = run(
        capsys, ["sweep", "--alphas", "2:1:0.5", "--mus", "1.0", "--n", "30"]
    )
    assert code == 1
    assert "error:" in err


def test_verify_small(tmp_path, capsys):
    report_path = tmp_path / "verify.json"
    code, out, _ = run(
        capsys,
        ["verify", "--seed", "123", "--instances", "20", "--lemma-instances", "8",
         "--report", str(report_path)],
    )
    assert code == 0
    assert out.count("[PASS]") == 8
    payload = json.loads(report_path.read_text())
    assert payload["pass"] is True
    assert "elapsed_s" not in payload


def test_module_entry_point_runs_verify():
    src = str(Path(htspec.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "htspec", "verify", "--instances", "5", "--lemma-instances", "2"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("[PASS]") == 8


def test_verify_counts_below_one_rejected(capsys):
    for argv in (["--instances", "-3", "--lemma-instances", "-1"], ["--instances", "0"],
                 ["--lemma-instances", "0"]):
        code, out, err = run(capsys, ["verify", *argv])
        assert code == 1, argv
        assert "[PASS]" not in out and ">= 1" in err
