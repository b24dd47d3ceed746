import json

import pytest

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
    assert lines[0] == "i,j,value"
    i, j, value = lines[1].split(",")
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
        capsys, ["spectrum", "--in", str(path), "--k", "2", "--tol", "1e-10"]
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
         "--n", "50", "--replicates", "3", "--gamma", "0.2",
         "--gamma-prime", "0.5"],
    )
    assert code in (0, 2)
    assert "criteria passed" in out


def test_experiment_regime_mismatch_is_config_error(capsys):
    code, _, err = run(
        capsys,
        ["experiment", "--kind", "edge", "--alpha", "1", "--mu", "1",
         "--n", "40", "--replicates", "2"],
    )
    assert code == 1
    # the edge kind standardizes by default and alpha = 1 cannot be
    # standardized, so the run is refused before any sampling
    assert "alpha" in err


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
    cfg = write_config(
        tmp_path, f"[spectrum]\nin = {matrix}\nk = 2\nsymmetric = false\n"
    )
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
        ["--in", "m.csv", "--k", "2", "--solver", "dense", "--solver-seed", "3",
         "--no-symmetric", "--out", "s.json"],
        "in = m.csv\nk = 2\nsolver = dense\nsolver-seed = 3\nsymmetric = no\n"
        "out = s.json\n",
    ),
    "spectrum-dests": (
        ["--in", "m.csv", "--sv", "log_power", "--sv-c", "2", "--symmetric"],
        "infile = m.csv\nsv_kind = log_power\nsv-c = 2\nsymmetric = on\n",
    ),
    "experiment": (
        ["--kind", "poisson", "--alpha", "1", "--mu", "1", "--n", "40",
         "--replicates", "3", "--thresholds", "0.5,2", "--master-seed", "9",
         "--no-timing", "--top-k", "2"],
        "kind = poisson\nalpha = 1\nmu = 1\nn = 40\nreplicates = 3\n"
        "thresholds = 0.5, 2\nmaster-seed = 9\ntiming = no\ntop_k = 2\n",
    ),
    "experiment-truncation": (
        ["--kind", "truncation", "--alpha", "8", "--mu", "1", "--n", "50",
         "--gamma", "0.2", "--gamma-prime", "0.5", "--standardize"],
        "kind = truncation\nalpha = 8\nmu = 1\nn = 50\ngamma = 0.2\n"
        "gamma_prime = 0.5\nstandardize = true\n",
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
