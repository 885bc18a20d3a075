"""Self-test of the benchmark's outside checks.

Run from the repository root:

    python3 bench/selftest.py

It checks that BENCHMARK.json lists exactly the workloads and metrics that
run.py reports. It then feeds the checks doctored outputs: a norms summary
that calls L1_f finite at q = 3, a non-zero exit status, a verify report
with ``passed: false``, an exception, CSVs that change between passes, and
failures that only resemble the two open defects. Each must count as a
failure that is not explained away, while a real passing ``verify``
invocation must count as none. Exits 0 when every case behaves.
"""

from __future__ import annotations

import copy
import json
import shutil
import sys
from pathlib import Path

from checks import invocation_failures, known_defect, norms_verdict_errors
from layers import PER_LAYER_UNITS
from run import END_TO_END_UNITS, ROOT, SRC, WORKLOADS, Invocation, Runner

WORK = ROOT / ".bench_out" / "selftest"

PAPER_SUMMARY = {
    "classification": (
        [{"series": "L1_f", "q": q, "finite": q < 2.0} for q in (1.5, 1.9, 2.1, 3.0, 4.0)]
        + [{"series": "L1_Y", "q": q, "finite": True} for q in (1.5, 1.9, 2.1, 3.0, 4.0)]),
}

ORACLE_OVER_BUDGET = {"passed": False, "study_valid": True, "order_band": [1.7, 2.3],
                      "convergence_order": 2.0, "final_error_Linf": 2e-5,
                      "error_budget": 1e-5}


def _write_outputs(out_dir: Path, command: str, exit_status: int, report: dict,
                   csv_text: str = "a,b\n1,2\n") -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "run_summary.json").write_text(json.dumps({"exit_status": exit_status}))
    name = {"norms": "norms_summary.json", "verify": "verify_report.json",
            "oracle": "oracle_study.json"}[command]
    (out_dir / name).write_text(json.dumps(report))
    (out_dir / "table.csv").write_text(csv_text)


def check_norms_verdicts(failures: list[str]) -> None:
    if norms_verdict_errors(PAPER_SUMMARY, 2):
        failures.append("the paper's own verdicts are reported as mismatches")
    doctored = copy.deepcopy(PAPER_SUMMARY)
    for row in doctored["classification"]:
        if row["series"] == "L1_f" and row["q"] == 3.0:
            row["finite"] = True
    if not norms_verdict_errors(doctored, 2):
        failures.append("L1_f finite at q = 3 is not a failure")
    for series, q, value in (("L1_Y", 4.0, False), ("L1_f", 1.5, None)):
        bad = copy.deepcopy(PAPER_SUMMARY)
        for row in bad["classification"]:
            if row["series"] == series and row["q"] == q:
                row["finite"] = value
        if not norms_verdict_errors(bad, 2):
            failures.append(f"{series} finite={value} at q = {q} is not a failure")
    missing_y = {"classification": [r for r in PAPER_SUMMARY["classification"]
                                    if r["series"] == "L1_f"]}
    if not norms_verdict_errors(missing_y, 2):
        failures.append("a part-2 summary without L1_Y is not a failure")


def check_invocation_failures(failures: list[str]) -> None:
    out = WORK / "files"
    _write_outputs(out, "norms", 0, PAPER_SUMMARY)
    if invocation_failures("norms", 2, 0, out):
        failures.append("a clean norms invocation is reported as failed")
    _write_outputs(out, "norms", 1, PAPER_SUMMARY)
    if not invocation_failures("norms", 2, 1, out):
        failures.append("a non-zero exit status is not a failure")
    _write_outputs(out, "verify", 0, {"passed": False, "checks": []})
    if not invocation_failures("verify", 1, 0, out):
        failures.append("verify_report.json with passed: false is not a failure")
    _write_outputs(out, "verify", 1, {"passed": True, "checks": []})
    (out / "run_summary.json").write_text(json.dumps({"exit_status": 0}))
    if not any("run_summary" in m for _, m in invocation_failures("verify", 1, 1, out)):
        failures.append("an exit status that disagrees with run_summary.json passes")

    _write_outputs(out, "oracle", 1, ORACLE_OVER_BUDGET)
    if known_defect("oracle", "table.csv", out) is None:
        failures.append("the over-budget oracle signature is not recognised")
    if known_defect("oracle", "bump", out) is not None:
        failures.append("an oracle failure on the bump is taken for the known defect")
    _write_outputs(out, "oracle", 1, dict(ORACLE_OVER_BUDGET, convergence_order=1.1))
    if known_defect("oracle", "table.csv", out) is not None:
        failures.append("an oracle failure outside the order band is taken for the known defect")

    def verify_fail(equation, ratio):
        return {"passed": False, "checks": [
            {"equation": "swirl_pde_part1", "passed": True,
             "max_abs_residual": 0.001, "tolerance": 0.01},
            {"equation": equation, "passed": False,
             "max_abs_residual": 0.01 * ratio, "tolerance": 0.01}]}
    cases = [("table.csv", verify_fail("swirl_pde_part2", 1.06), True),
             ("bump", verify_fail("swirl_pde_part2", 1.06), False),
             ("table.csv", verify_fail("swirl_pde_part2", 3.0), False),
             ("table.csv", verify_fail("radial_momentum", 1.06), False)]
    for k_spec, report, known in cases:
        _write_outputs(out, "verify", 1, report)
        if (known_defect("verify", k_spec, out) is not None) != known:
            failures.append(f"verify failure {report['checks'][1]} on {k_spec}: "
                            f"known defect should be {known}")


def check_runner(failures: list[str]) -> None:
    """Drive Runner with stand-in CLIs that misbehave in one way each."""
    inv = Invocation("fake-norms", "norms", 2, 0.5, "bump")

    def passing(argv):
        _write_outputs(Path(argv[argv.index("--out") + 1]), "norms", 0, PAPER_SUMMARY)
        return 0

    def exits_nonzero(argv):
        _write_outputs(Path(argv[argv.index("--out") + 1]), "norms", 3, PAPER_SUMMARY)
        return 3

    def raises(argv):
        raise RuntimeError("stand-in crash")

    def unstable_csv():
        calls = []

        def main(argv):
            calls.append(argv)
            _write_outputs(Path(argv[argv.index("--out") + 1]), "norms", 0,
                           PAPER_SUMMARY, csv_text=f"a\n{len(calls)}\n")
            return 0
        return main

    cases = [("passing", passing, 0), ("non-zero exit", exits_nonzero, 2),
             ("exception", raises, 2), ("changing CSV", unstable_csv(), 1)]
    for label, fake, expect_failed in cases:
        shutil.rmtree(WORK / "runner", ignore_errors=True)
        runner = Runner(fake, WORK / "runner", [inv])
        runner.run_pass()
        runner.run_pass()
        if len(runner.failed) != expect_failed:
            failures.append(f"runner, {label}: {len(runner.failed)} failed, "
                            f"expected {expect_failed}")
        if runner.failed and not runner.unexplained:
            failures.append(f"runner, {label}: failure taken for the known defect")


def check_real_invocation(failures: list[str]) -> None:
    """A real verify invocation that passes must count as no failure."""
    import axiswirl.cli
    runner = Runner(axiswirl.cli.main, WORK / "real",
                    [Invocation("verify-p1-bump", "verify", 1, 0.5, "bump")])
    runner.run_pass()
    if runner.failed:
        failures.append(f"a passing verify run is reported as failed: {runner.failed}")


def check_benchmark_file(failures: list[str]) -> None:
    """BENCHMARK.json must name exactly the workloads and metrics run.py reports."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    pairs = [("workloads", [w["name"] for w in spec["workloads"]], list(WORKLOADS)),
             ("end_to_end", {m["name"]: m["unit"] for m in spec["end_to_end"]},
              END_TO_END_UNITS),
             ("per_layer", {m["name"]: m["unit"] for m in spec["per_layer"]},
              PER_LAYER_UNITS)]
    for section, listed, reported in pairs:
        if listed != reported:
            failures.append(f"BENCHMARK.json {section} differs from what run.py reports")


def main() -> int:
    sys.path.insert(0, str(SRC))
    failures: list[str] = []
    check_benchmark_file(failures)
    check_norms_verdicts(failures)
    check_invocation_failures(failures)
    check_runner(failures)
    check_real_invocation(failures)
    for failure in failures:
        print(f"selftest: FAIL {failure}")
    print(f"selftest: {'ok' if not failures else f'{len(failures)} failing'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
