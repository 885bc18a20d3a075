import json

import numpy as np
import pytest

from axiswirl.cli import main, load_config, load_k_table
from axiswirl.errors import ConfigError


def run_cli(args):
    return main(args)


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("T = 0.25\npart = 2  # log family\ngrid_n = 64\n\n")
    values = load_config(str(path))
    assert values == {"T": 0.25, "part": 2, "grid_n": 64}


def test_load_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("Tfinal = 0.25\n")
    with pytest.raises(ConfigError, match="run.cfg:1"):
        load_config(str(path))


def test_k_table_parse_error_names_line(tmp_path):
    path = tmp_path / "k.csv"
    path.write_text("r,k\n0,0\n0.5,oops\n1,0\n")
    with pytest.raises(ConfigError, match="k.csv:3"):
        load_k_table(str(path))


def test_k_table_roundtrip(tmp_path):
    path = tmp_path / "k.csv"
    r = np.linspace(0.0, 1.0, 9)
    k = -np.square(np.sin(np.pi * r))
    path.write_text("r,k\n" + "\n".join(f"{a},{b}" for a, b in zip(r, k)) + "\n")
    prof = load_k_table(str(path))
    assert prof.nonpositive
    assert prof.nontrivial


def test_cmd_profile_zero_table(tmp_path):
    ktab = tmp_path / "k.csv"
    ktab.write_text("r,k\n" + "\n".join(f"{x},0" for x in np.linspace(0, 1, 9)) + "\n")
    out = tmp_path / "out"
    rc = run_cli(["profile", "--k", str(ktab), "--out", str(out)])
    assert rc == 0
    summary = json.loads((out / "profile_summary.json").read_text())
    assert summary["alpha"] == 0.0
    assert summary["passed"]


def test_cmd_profile_reference(tmp_path):
    out = tmp_path / "out"
    rc = run_cli(["profile", "--out", str(out)])
    assert rc == 0
    summary = json.loads((out / "profile_summary.json").read_text())
    assert summary["alpha"] < 0.0
    header = (out / "profile.csv").read_text().splitlines()[0]
    assert header == "r,phi0,phi0_prime,phi0_second,ode_residual"


def test_cmd_profile_gate_sees_the_g_cache(tmp_path, monkeypatch):
    # A perturbed h = g/r^2 cache leaves the ODE residual at rounding (its
    # terms in h cancel); the comparison with g_exact must catch it.
    import dataclasses

    from axiswirl import cli

    real_build = cli.build_family

    def doctored_build(cfg):
        fam = real_build(cfg)
        spline = fam.profile._h_spline
        prof = dataclasses.replace(
            fam.profile, _h_spline=lambda r: spline(r) + 1e-3 * np.sin(7.0 * r))
        return dataclasses.replace(fam, profile=prof)

    monkeypatch.setattr(cli, "build_family", doctored_build)
    out = tmp_path / "out"
    assert run_cli(["profile", "--out", str(out)]) == 1
    summary = json.loads((out / "profile_summary.json").read_text())
    assert summary["max_ode_residual"] < summary["residual_tolerance"]
    assert summary["max_g_error_over_tolerance"] > 1.0
    assert not summary["passed"]


def test_cmd_profile_malformed_table_exit_code(tmp_path, capsys):
    ktab = tmp_path / "k.csv"
    ktab.write_text("r,k\n0,zzz\n")
    rc = run_cli(["profile", "--k", str(ktab), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "k.csv:2" in capsys.readouterr().err


def _verify_small(part, out):
    rc = run_cli(["verify", "--part", str(part), "--grid-n", "48", "--ladder-J", "8",
                  "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "verify_report.json").read_text())
    assert report["passed"]
    return [c.get("equation", c.get("name")) for c in report["checks"]]


def test_cmd_verify_part1_small(tmp_path):
    assert _verify_small(1, tmp_path / "out") == [
        "swirl_pde_part1", "boundary", "u_upper", "grad_u_upper"]


def test_cmd_verify_part2_small(tmp_path):
    assert _verify_small(2, tmp_path / "out") == [
        "eta_identity", "swirl_pde_part2", "boundary", "u_upper", "grad_u_upper",
        "phi_lower"]


def test_cmd_verify_part2_zero_table_has_no_lower_bound(tmp_path):
    # A trivial forcing is admissible and makes the lower-bound claim empty.
    ktab = tmp_path / "k.csv"
    ktab.write_text("r,k\n" + "".join(f"{i / 32!r},0.0\n" for i in range(33)))
    out = tmp_path / "out"
    rc = run_cli(["verify", "--part", "2", "--k", str(ktab), "--out", str(out)])
    assert rc == 0
    assert json.loads((out / "run_summary.json").read_text())["exit_status"] == 0
    report = json.loads((out / "verify_report.json").read_text())
    assert report["passed"]
    assert all(c.get("name") != "phi_lower" for c in report["checks"])


def test_cmd_oracle_default(tmp_path):
    out = tmp_path / "out"
    rc = run_cli(["oracle", "--out", str(out)])
    assert rc == 0
    study = json.loads((out / "oracle_study.json").read_text())
    assert 1.7 <= study["convergence_order"] <= 2.3
    assert study["passed"]


@pytest.mark.parametrize("flags, base_n", [([], 128), (["--oracle-n-r", "16"], 16),
                                           (["--oracle-n-r", "17"], 17)],
                         ids=["default", "n16", "n17"])
def test_oracle_study_levels_are_the_library_default(tmp_path, fam1, flags, base_n):
    # One step ratio for library and CLI, down to the smallest grids: at 16
    # and 17 nodes, 12 steps per octave. dt is the first octave's step.
    from axiswirl.oracle import default_levels

    out = tmp_path / "out"
    assert run_cli(["oracle", *flags, "--out", str(out)]) == 0
    study = json.loads((out / "oracle_study.json").read_text())
    assert study["levels"] == [{"n_r": l.n_r, "dt": 0.5 * fam1.T / l.steps,
                                "delta": fam1.T / 8.0}
                               for l in default_levels(base_n=base_n)]


def test_all_part2_runs_every_command_and_summarises_each(tmp_path, monkeypatch):
    monkeypatch.delenv("OUT_DIR", raising=False)
    out = tmp_path / "out"
    commands = ("profile", "verify", "norms", "oracle")
    assert run_cli(["all", "--part", "2", "--out", str(out)]) == 0
    for command in commands:
        assert (out / f"manifest_{command}.json").is_file()
    summary = json.loads((out / "run_summary.json").read_text())
    assert summary["command"] == "all"
    assert summary["results"] == {command: 0 for command in commands}
    assert summary["exit_status"] == 0


def test_bit_reproducible_reruns(tmp_path):
    out = tmp_path / "out"
    assert run_cli(["profile", "--out", str(out)]) == 0
    first = (out / "profile.csv").read_bytes()
    manifest_first = (out / "manifest_profile.json").read_bytes()
    assert run_cli(["profile", "--out", str(out)]) == 0
    assert (out / "profile.csv").read_bytes() == first
    assert (out / "manifest_profile.json").read_bytes() == manifest_first


def test_out_dir_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("OUT_DIR", str(tmp_path / "env-out"))
    rc = run_cli(["profile"])
    assert rc == 0
    assert (tmp_path / "env-out" / "profile_summary.json").exists()


def test_config_error_exit_status(tmp_path):
    rc = run_cli(["profile", "--T", "0.9", "--out", str(tmp_path / "o")])
    assert rc == 2


def test_ladder_deeper_than_double_precision_is_a_config_error(tmp_path):
    # At T = 1/2 the levels T (1 - 2^-j) stop increasing past j = 53.
    out = tmp_path / "out"
    rc = run_cli(["norms", "--part", "1", "--ladder-J", "60", "--out", str(out)])
    assert rc == 2
    summary = json.loads((out / "run_summary.json").read_text())
    assert summary["exit_status"] == 2
    assert "ladder_J = 60" in summary["error"]


def test_ladder_J_past_double_precision_exits_2_before_any_array(tmp_path, monkeypatch):
    # A depth no T admits is rejected before the ladder's arrays exist:
    # a billion levels would otherwise ask for gigabytes just to exit 2.
    real = np.arange

    def bounded(start, stop=None, *args, **kwargs):
        if (start if stop is None else stop - start) > 64:
            pytest.fail("np.arange asked for more than 64 levels")
        return real(start, stop, *args, **kwargs)

    monkeypatch.setattr(np, "arange", bounded)
    out = tmp_path / "out"
    assert run_cli(["norms", "--ladder-J", "1000000000", "--out", str(out)]) == 2
    summary = json.loads((out / "run_summary.json").read_text())
    assert "ladder_J = 1000000000" in summary["error"]


def test_norms_ladder_J_above_the_classification_cap_deepens_every_series(tmp_path):
    # The classification ladder is capped at 40 levels, but never below ladder_J.
    out = tmp_path / "out"
    assert run_cli(["norms", "--part", "2", "--ladder-J", "41", "--out", str(out)]) == 0
    for name in ("L1_Y", "L1_f", "energy_v"):
        lines = (out / f"norms_{name}.csv").read_text().splitlines()
        assert len(lines) == 1 + 41, name


def test_missing_config_file_exits_2_with_a_summary(tmp_path):
    missing = tmp_path / "missing.cfg"
    out = tmp_path / "out"
    rc = run_cli(["verify", "--config", str(missing), "--out", str(out)])
    assert rc == 2
    summary = json.loads((out / "run_summary.json").read_text())
    assert summary["exit_status"] == 2
    assert str(missing) in summary["error"]


def test_oracle_marches_only_the_study_levels(tmp_path, monkeypatch):
    from axiswirl import oracle

    marched = []

    class RecordingStepper(oracle.SwirlStepper):
        def __init__(self, n_r, *args, **kwargs):
            marched.append(n_r)
            super().__init__(n_r, *args, **kwargs)

    monkeypatch.setattr(oracle, "SwirlStepper", RecordingStepper)
    out = tmp_path / "out"
    assert run_cli(["oracle", "--out", str(out)]) == 0
    study = json.loads((out / "oracle_study.json").read_text())
    assert marched == [level["n_r"] for level in study["levels"]]
    assert "near_blowup_probe" not in study


@pytest.mark.parametrize("flags, steps", [([], [288, 576, 1152]),
                                          (["--oracle-n-r", "16"], [36, 72, 144])],
                         ids=["default", "n16"])
def test_oracle_study_records_the_steps_each_level_took(tmp_path, monkeypatch, flags, steps):
    # 3 octaves of 3 n_r / 4 steps on the coarsest level: 96 at n_r = 128, 12 at 16.
    from axiswirl import oracle

    taken = {}

    class CountingStepper(oracle.SwirlStepper):
        def advance(self, w, rows):
            taken[self.n_r] = taken.get(self.n_r, 0) + len(rows)
            return super().advance(w, rows)

    monkeypatch.setattr(oracle, "SwirlStepper", CountingStepper)
    out = tmp_path / "out"
    assert run_cli(["oracle", *flags, "--out", str(out)]) == 0
    study = json.loads((out / "oracle_study.json").read_text())
    assert study["steps"] == steps
    assert [taken[level["n_r"]] for level in study["levels"]] == steps


def test_run_summary_always_emitted(tmp_path):
    out = tmp_path / "out"
    run_cli(["profile", "--out", str(out)])
    summary = json.loads((out / "run_summary.json").read_text())
    assert summary["exit_status"] == 0
    assert summary["results"]["profile"] == 0


def test_an_unexpected_exception_exits_1_with_a_summary(tmp_path, monkeypatch, capsys):
    from axiswirl import cli

    def broken(cfg):
        raise ValueError("boom")

    monkeypatch.setitem(cli.COMMANDS, "profile", broken)
    out = tmp_path / "out"
    assert run_cli(["profile", "--out", str(out)]) == 1
    summary = json.loads((out / "run_summary.json").read_text())
    assert summary["exit_status"] == 1
    assert summary["error"] == "ValueError: boom"
    assert "axiswirl: ValueError: boom" in capsys.readouterr().err


def _rows(series, verdicts):
    return [{"series": series, "q": q, "finite": f}
            for q, f in zip((1.5, 1.9, 2.1, 3.0, 4.0), verdicts)]


def test_norms_verdicts_agreeing_with_the_paper_pass():
    from axiswirl.cli import norms_verdict_failures
    rows = (_rows("L1_f", (True, True, False, False, False))
            + _rows("L1_Y", (True,) * 5))
    assert norms_verdict_failures(rows, nontrivial=True) == []


def test_norms_verdicts_contradicting_the_paper_fail():
    from axiswirl.cli import norms_verdict_failures
    rows = (_rows("L1_f", (True, True, True, False, False))
            + _rows("L1_Y", (True, True, True, False, True)))
    failures = norms_verdict_failures(rows, nontrivial=True)
    assert len(failures) == 2
    assert failures[0].startswith("L1_f q=2.1")
    assert failures[1].startswith("L1_Y q=3.0")


def test_norms_inconclusive_verdict_fails_even_for_trivial_forcing():
    from axiswirl.cli import norms_verdict_failures
    rows = _rows("L1_f", (True, None, True, True, True))
    assert norms_verdict_failures(rows, nontrivial=False) == [
        "L1_f q=1.9: finite = None, the paper says True"]
    assert len(norms_verdict_failures(rows, nontrivial=True)) == 4


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("part", [1, 2])
@pytest.mark.parametrize("T", [1.8e-213, 1e-300])
def test_verify_at_a_tiny_T_writes_a_finite_forcing_column(tmp_path, T, part):
    # tau^1.5 underflows to 0 at the slice's deepest times; there the forcing
    # h = k(sigma)/tau^1.5 is +0.0 (sigma >= 1), not 0/0 = NaN.
    out = tmp_path / "out"
    assert run_cli(["verify", "--part", str(part), "--T", repr(T), "--out", str(out)]) == 0
    lines = (out / "field_slice.csv").read_text().splitlines()
    column = lines[0].split(",").index("h")
    h = np.array([float(line.split(",")[column]) for line in lines[1:]])
    assert h.size == 192 and np.all(np.isfinite(h))


# No warning deep on a subnormal ladder: q >= 2 reads infinite from the
# growth law alone, without forming |v|^q.
@pytest.mark.filterwarnings("error")
def test_norms_part1_at_a_tiny_T_reads_the_paper_verdicts(tmp_path):
    # Deep on the ladder T - t is subnormal; the log tail shapes stay finite.
    out = tmp_path / "out"
    assert run_cli(["norms", "--part", "1", "--T", "1e-300", "--out", str(out)]) == 0
    rows = json.loads((out / "norms_summary.json").read_text())["classification"]
    assert [(row["q"], row["finite"]) for row in rows if row["series"] == "L1_f"] == [
        (1.5, True), (1.9, True), (2.1, False), (3.0, False), (4.0, False)]


def test_manifest_records_scipy_version(tmp_path):
    import scipy
    out = tmp_path / "out"
    assert run_cli(["profile", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest_profile.json").read_text())
    assert manifest["versions"]["scipy"] == scipy.__version__


@pytest.mark.parametrize("flags, config, message", [
    ([], "oracle_theta = 0.5\n", "unknown key 'oracle_theta'"),
    (["--oracle-n-r", "8"], "", "n_r must be at least 16"),
    ([], "oracle_levels = 3\n", "unknown key 'oracle_levels'"),
    ([], "grading = uniform\n", "unknown key 'grading'"),
    ([], "formats = csv\n", "unknown key 'formats'"),
    ([], "bogus = 1\n", "unknown key 'bogus'"),
    ([], "T = abc\n", "could not convert string to float: 'abc'"),
], ids=["oracle-theta", "oracle-n-r", "oracle-levels", "grading", "formats",
        "config-unknown-key", "config-bad-value"])
def test_rejected_settings_exit_2_with_a_summary(tmp_path, flags, config, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    out = tmp_path / "out"
    rc = run_cli(["oracle", "--config", str(cfg), *flags, "--out", str(out)])
    assert rc == 2
    summary = json.loads((out / "run_summary.json").read_text())
    assert summary["exit_status"] == 2
    assert message in summary["error"]


def test_every_run_config_field_is_a_config_key(tmp_path):
    from dataclasses import fields
    from axiswirl.cli import RunConfig, _parse_args
    path = tmp_path / "run.cfg"
    path.write_text("T = 0.25\npart = 2\nk_spec = bump\ngrid_n = 64\n"
                    "ladder_J = 10\nout_dir = o\noracle_n_r = 64\n")
    values = load_config(str(path))
    names = {f.name for f in fields(RunConfig)}
    assert set(values) == names
    RunConfig(**values).validate()
    # ... and the dest of a flag
    assert names <= set(vars(_parse_args(["verify"])))


def test_verify_console_lines_carry_headroom(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli(["verify", "--part", "2", "--grid-n", "48", "--ladder-J", "8",
                    "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    checks = json.loads((out / "verify_report.json").read_text())["checks"]
    assert len(lines) == len(checks)
    for line, c in zip(lines, checks):
        if "equation" in c:
            ratio = c["max_abs_residual"] / c["tolerance"]
            expected = f"{c['equation']}: pass (max_abs_residual/tolerance = {ratio:.3g})"
        else:
            ratio = c["fitted_C"] / c["C_star"]
            expected = f"{c['name']}: pass (fitted_C/C_star = {ratio:.6g})"
        assert line == "verify: " + expected


@pytest.mark.parametrize("bad", ["nan", "-inf"])
def test_non_finite_table_exits_2_with_a_summary(tmp_path, bad):
    ktab = tmp_path / "k.csv"
    ktab.write_text(f"r,k\n0,0\n0.25,-1\n0.5,{bad}\n0.75,-1\n1,0\n")
    out = tmp_path / "out"
    rc = run_cli(["verify", "--part", "1", "--k", str(ktab), "--out", str(out)])
    assert rc == 2
    summary = json.loads((out / "run_summary.json").read_text())
    assert summary["exit_status"] == 2
    assert "finite" in summary["error"]


def test_k_table_header_after_leading_comments(tmp_path):
    path = tmp_path / "comment.csv"
    r = np.linspace(0.0, 1.0, 9)
    k = -np.square(np.sin(np.pi * r))
    path.write_text("# my table\n\nr,k\n"
                    + "\n".join(f"{a},{b}" for a, b in zip(r, k)) + "\n")
    prof = load_k_table(str(path))
    assert prof.nonpositive and prof.nontrivial
    path.write_text("# my table\n0,0\nr,k\n1,0\n")
    with pytest.raises(ConfigError, match="comment.csv:3"):
        load_k_table(str(path))


@pytest.mark.parametrize("part", ["1", "2"])
def test_verify_passes_at_the_deepest_accepted_ladder(tmp_path, part):
    # J = 53 is the deepest ladder the CLI accepts at T = 1/2 (J = 54 exits 2);
    # its last levels sit at T - t ~ 1e-16.
    out = tmp_path / "out"
    assert run_cli(["verify", "--part", part, "--ladder-J", "53", "--out", str(out)]) == 0
    report = json.loads((out / "verify_report.json").read_text())
    assert report["passed"]
    assert run_cli(["verify", "--part", part, "--ladder-J", "54",
                    "--out", str(tmp_path / "too-deep")]) == 2
