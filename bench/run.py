"""Benchmark of axiswirl's CLI: time to a correct verify / norms / oracle verdict.

Usage (from the repository root):

    python3 bench/run.py --workload verify_mix --seed 1 --seconds 25 --trace 0

The program is driven in-process through ``axiswirl.cli.main(argv)`` from
this single-threaded process, with sources imported from ``src/`` of the
checkout. A pass runs every invocation of the workload once; passes repeat
until ``--seconds`` have elapsed (at least two, so outputs can be compared
between passes). Each invocation is checked from outside (see checks.py).

``--trace 0`` reports the end-to-end metrics: median wall and CPU time per
pass, set-up time of a fresh interpreter, peak RSS. ``--trace 1`` first
runs untraced passes for a reference, then traced passes with spans
recorded at every layer boundary (see tracer.py), and reports the
per-layer metrics.

Human-readable lines go to standard output first; the last line is one JSON
object. A full record of the run, spans included, is written under
``.bench_out/<workload>/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from checks import csv_digests, invocation_failures, known_defect
from inputs import make_inputs
from layers import COUNT_METRICS, PER_LAYER_UNITS, layer_metrics
from tracer import Tracer, write_spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_PASSES = 2
SETUP_REPEATS = 3

WORKLOADS = {
    # norms --part 2 on the reference bump: nested scalar quadrature, with
    # integrate feeding fields kernels 31-node batches. oracle does no work.
    "norms_ref": "norms",
    # verify --part 1/2 on the bump at T = 1/2 and on the seeded table at the
    # seeded non-dyadic T: mostly the per-sample pressure quadratures of the
    # momentum check, plus field kernels on grid x ladder arrays. norms and
    # oracle do no work.
    "verify_mix": "verify",
    # oracle --part 1 on the bump and --part 2 on the seeded table: the
    # theta-scheme stepper plus one forcing evaluation per step.
    "oracle_mix": "oracle",
}

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


@dataclass(frozen=True)
class Invocation:
    name: str
    command: str
    part: int
    T: float
    k_spec: str

    def argv(self, out_dir: Path) -> list[str]:
        return [self.command, "--part", str(self.part), "--T", repr(self.T),
                "--k", self.k_spec, "--out", str(out_dir)]


def invocations(workload: str, T: float, table: Path) -> list[Invocation]:
    command = WORKLOADS[workload]
    if workload == "norms_ref":
        return [Invocation("norms-p2-bump", "norms", 2, 0.5, "bump")]
    bump = [Invocation(f"{command}-p{p}-bump", command, p, 0.5, "bump") for p in (1, 2)]
    tab = [Invocation(f"{command}-p{p}-table", command, p, T, str(table)) for p in (1, 2)]
    if workload == "verify_mix":
        return bump + tab
    return [bump[0], tab[1]]


class Runner:
    """Runs passes of one workload and checks every invocation."""

    def __init__(self, cli_main, work_dir: Path, invs: list[Invocation]):
        self.cli_main = cli_main
        self.work_dir = work_dir
        self.invs = invs
        self.records: list[dict] = []       # one per attempted invocation
        self.digests: dict[str, dict[str, str]] = {}

    def run_pass(self, tracer=None) -> tuple[float, float]:
        """One pass; returns (wall, cpu) seconds spent inside the CLI."""
        wall = cpu = 0.0
        for inv in self.invs:
            out_dir = self.work_dir / inv.name
            argv = inv.argv(out_dir)
            call = functools.partial(self.cli_main, argv)
            trace_id = len(self.records)
            sink = io.StringIO()
            error = None
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                c0 = time.process_time()
                t0 = time.perf_counter()
                try:
                    rc = tracer.root(call, trace_id) if tracer else call()
                except Exception as exc:  # anything escaping the CLI is a failure
                    rc, error = None, exc
                t1 = time.perf_counter()
                c1 = time.process_time()
            wall += t1 - t0
            cpu += c1 - c0
            self.records.append(self._check(inv, out_dir, rc, error, t1 - t0))
        return wall, cpu

    def _check(self, inv: Invocation, out_dir: Path, rc, error, wall) -> dict:
        if error is not None:
            reasons = [("raised", f"{type(error).__name__}: {error}")]
        else:
            reasons = invocation_failures(inv.command, inv.part, rc, out_dir)
        digests = csv_digests(out_dir)
        first = self.digests.setdefault(inv.name, digests)
        if digests != first:
            changed = sorted(n for n in set(first) | set(digests)
                             if first.get(n) != digests.get(n))
            reasons.append(("output", "CSV digests differ from the first pass: "
                            + ", ".join(changed)))
        kinds = {kind for kind, _ in reasons}
        cause = (known_defect(inv.command, inv.k_spec, out_dir)
                 if kinds == {"exit", "report"} else None)
        return {"invocation": inv.name, "argv": inv.argv(out_dir), "exit_status": rc,
                "wall_s": wall, "reasons": [m for _, m in reasons],
                "known_defect": cause}

    @property
    def failed(self) -> list[dict]:
        return [r for r in self.records if r["reasons"]]

    @property
    def unexplained(self) -> list[dict]:
        return [r for r in self.failed if not r["known_defect"]]


def setup_probe(workload: str, table: Path):
    """A function timing one fresh interpreter that imports the CLI and
    builds the profile of each of the workload's forcings."""
    forcings = ["bump"] if workload == "norms_ref" else ["bump", str(table)]
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "from axiswirl.cli import load_k_table\n"
        "from axiswirl.profiles import build_profile, reference_k\n"
        f"for spec in {forcings!r}:\n"
        "    build_profile(reference_k() if spec == 'bump' else load_k_table(spec))\n"
    )

    def probe() -> float:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True)
        return time.perf_counter() - t0
    return probe


def run_passes(runner: Runner, seconds: float, tracer_factory=None,
               min_passes=MIN_PASSES, between=None):
    """Passes until ``seconds`` have elapsed; (wall, cpu, tracer) per pass.

    ``between()`` runs after each pass, outside the timed region.
    """
    out = []
    start = time.perf_counter()
    while len(out) < min_passes or time.perf_counter() - start < seconds:
        tracer = tracer_factory() if tracer_factory else None
        if tracer:
            tracer.install()
        try:
            wall, cpu = runner.run_pass(tracer)
        finally:
            if tracer:
                tracer.uninstall()
        out.append((wall, cpu, tracer))
        if between:
            between()
    return out


def machine_facts() -> dict:
    import numpy
    import scipy
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
    }


def end_to_end(runner: Runner, workload: str, table: Path, seconds: float):
    # Set-up samples are spread between the passes, so that a slow spell of
    # the machine does not land on all of them; the first fills the
    # byte-code and file caches and is not counted.
    probe = setup_probe(workload, table)
    probe()
    setup = [probe()]
    passes = run_passes(runner, seconds, between=lambda: setup.append(probe()))
    while len(setup) < SETUP_REPEATS:
        setup.append(probe())
    walls = [w for w, _, _ in passes]
    cpus = [c for _, c, _ in passes]
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {"passes": len(passes), "wall_s": walls, "cpu_s": cpus, "setup_s": setup}
    return metrics, samples, []


def per_layer(runner: Runner, work_dir: Path, seconds: float):
    reference = run_passes(runner, seconds / 3.0, min_passes=1)
    untraced = statistics.median(w for w, _, _ in reference)
    traced = run_passes(runner, seconds - sum(w for w, _, _ in reference), Tracer)
    per_pass = [layer_metrics(tracer, wall) for wall, _, tracer in traced]

    problems = []
    for name in COUNT_METRICS:
        values = {m[name] for m in per_pass}
        if len(values) > 1:
            problems.append(f"count {name} differs between traced passes: {sorted(values)}")
    for m in per_pass:
        if abs(m["trace.unattributed_s"]) > 1e-6 * m["trace.pass_s"]:
            problems.append(f"layer self times do not add up: {m['trace.unattributed_s']!r}")
    metrics = {name: (per_pass[0][name] if name in COUNT_METRICS
                      else statistics.median(m[name] for m in per_pass))
               for name in per_pass[0] if name != "trace.unattributed_s"}
    metrics["trace.untraced_pass_s"] = untraced
    metrics["trace.overhead_s"] = metrics["trace.pass_s"] - untraced

    spans_path = work_dir / "spans.npz"
    write_spans(str(spans_path), [tracer for _, _, tracer in traced])
    steps = {n_r: 1e6 * t / count
             for n_r, (count, t) in sorted(traced[0][2].step_by_n_r.items())}
    samples = {"untraced_passes": [w for w, _, _ in reference],
               "traced_passes": [w for w, _, _ in traced],
               "per_pass": per_pass, "spans_file": str(spans_path.relative_to(ROOT)),
               "oracle_step_us_by_n_r": steps}
    return metrics, samples, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "axiswirl" / "cli.py").is_file():
        print(f"bench: no axiswirl sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import axiswirl.cli
    if Path(axiswirl.cli.__file__).resolve().parent != SRC / "axiswirl":
        print(f"bench: axiswirl imported from {axiswirl.cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    inputs = make_inputs(args.seed)
    work_dir = ROOT / ".bench_out" / args.workload
    work_dir.mkdir(parents=True, exist_ok=True)
    table = work_dir / f"k_table_seed{args.seed}.csv"
    table.write_text(inputs.table_text)
    runner = Runner(axiswirl.cli.main, work_dir, invocations(args.workload, inputs.T, table))

    if args.trace:
        units = PER_LAYER_UNITS
        metrics, samples, problems = per_layer(runner, work_dir, args.seconds)
    else:
        units = END_TO_END_UNITS
        metrics, samples, problems = end_to_end(runner, args.workload, table, args.seconds)

    failed = runner.failed
    unexplained = runner.unexplained
    correct = not unexplained and not problems
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "inputs": {"T": inputs.T, "amplitude": inputs.amplitude,
                   "k_table": inputs.table_text},
        "machine": machine_facts(),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "samples": samples,
        "attempted": len(runner.records), "failed": len(failed),
        "fail_ratio": len(failed) / len(runner.records),
        "failures": failed, "problems": problems,
        "invocation_wall_s": _median_by_invocation(runner.records),
    }
    (work_dir / f"record-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  T {inputs.T!r}  "
          f"amplitude {inputs.amplitude:.4f}  passes "
          f"{samples.get('passes', len(samples.get('traced_passes', [])))}")
    print("machine " + json.dumps(record["machine"], sort_keys=True))
    for name, wall in record["invocation_wall_s"].items():
        print(f"  invocation {name}: median {wall:.4f} s")
    for name in units:
        print(f"  {name} = {metrics[name]!r} {units[name]}")
    print(f"  fail_ratio = {record['fail_ratio']!r} ({len(failed)} of {len(runner.records)})")
    for rec in _distinct_failures(failed):
        tag = f"known defect: {rec['known_defect']}" if rec["known_defect"] else "UNEXPLAINED"
        print(f"  FAILED {rec['invocation']}: {'; '.join(rec['reasons'])} [{tag}]")
    for problem in problems:
        print(f"  PROBLEM {problem}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(runner.records),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


def _median_by_invocation(records: list[dict]) -> dict[str, float]:
    walls: dict[str, list[float]] = {}
    for rec in records:
        walls.setdefault(rec["invocation"], []).append(rec["wall_s"])
    return {name: statistics.median(w) for name, w in walls.items()}


def _distinct_failures(failed: list[dict]) -> list[dict]:
    seen = {}
    for rec in failed:
        seen.setdefault((rec["invocation"], tuple(rec["reasons"])), rec)
    return list(seen.values())


if __name__ == "__main__":
    sys.exit(main())
