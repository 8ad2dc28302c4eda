"""One benchmark process: set-up, one warm-up scenario, then a closed loop.

Usage (normally started by run.py):

    python3 benchmarks/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --out DIR

Set-up is timed from just before ``import cstarflow`` to the end of the
warm-up scenario.  The closed loop has one client: the next scenario
starts when the previous one returns, until ``--seconds`` have passed.
With ``--trace 1`` every second scenario runs under the tracer, so the
traced and untraced halves see the same conditions.  Prints one JSON
object on its last line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

import workloads
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent


class Scenario:
    """Validated configs of one pool entry, plus its double_smear inputs."""

    def __init__(self, spec: dict, lib):
        self.lib = lib
        self.configs = []
        for raw in spec["configs"]:
            config, problems = lib.cli.validate(raw)
            if problems:
                raise ValueError(f"generated config is invalid: {problems}")
            self.configs.append(config)
        self.pair = self.x = None
        if spec["double_smear"] is not None:
            ds = workloads.DOUBLE_SMEAR
            r = lib.sampling.rng(spec["double_smear"])
            shape = lib.BlockShape(ds["shape"])
            self.pair = lib.CommutingPair(*lib.sampling.random_commuting_flows(r, shape, ds["norm"]))
            self.x = lib.sampling.random_element(r, shape, 1.0)

    def call(self, out_dir: Path):
        """The timed part: the program's own work and nothing else."""
        reports = [self.lib.cli.run(c, out_dir / c.experiment, quiet=True) for c in self.configs]
        smeared = None
        if self.pair is not None:
            ds = workloads.DOUBLE_SMEAR
            smeared = self.lib.double_smear(self.pair, self.x, ds["index"], ds["z"])
        return reports, smeared

    def verify(self, out_dir: Path, reports, smeared) -> tuple[bool, dict, str]:
        """(passed, measured/bound of each check with a nonzero bound, sha256 of the outputs)."""
        digest = hashlib.sha256()
        checks = {}
        for config, report in zip(self.configs, reports):
            csv = out_dir / config.experiment / f"{config.experiment}.csv"
            digest.update(csv.name.encode() + b"\0" + csv.read_bytes())
            checks.update({f"{config.experiment}.{c.name}": (c.measured, c.bound) for c in report.checks})
        if smeared is not None:
            # Fubini: the double smear of a commuting pair is the iterated
            # closed-form smear (bound as in tests/test_composition.py).
            ds = workloads.DOUBLE_SMEAR
            oracle = self.lib.smear_oracle
            n, z = ds["index"], ds["z"]
            iterated = oracle(self.pair.alpha, oracle(self.pair.beta, self.x, n, z), n, z)
            checks["double_smear.fubini"] = ((smeared - iterated).norm(), 1e-9 * max(1.0, iterated.norm()))
            for block in smeared.blocks:
                digest.update(block.tobytes())
        passed = all(measured <= bound for measured, bound in checks.values())
        ratios = {name: measured / bound for name, (measured, bound) in checks.items() if bound > 0}
        return passed, ratios, digest.hexdigest()


def run_one(scenario: Scenario, index: int, out_dir: Path, tracer: Tracer | None) -> dict:
    record = {"index": index, "traced": tracer is not None, "error": None}
    try:
        if tracer is None:
            start = time.perf_counter()
            reports, smeared = scenario.call(out_dir)
            record["wall_s"] = time.perf_counter() - start
        else:
            (reports, smeared), record["trace"] = tracer.scenario(index, lambda: scenario.call(out_dir))
            record["wall_s"] = record["trace"]["wall_s"]
        record["passed"], record["ratios"], record["digest"] = scenario.verify(out_dir, reports, smeared)
    except Exception as exc:  # a failing scenario is a measurement, not a crash
        record.update(passed=False, ratios={}, digest=None, error=f"{type(exc).__name__}: {exc}")
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import cstarflow
    import cstarflow.cli
    import cstarflow.sampling

    if Path(cstarflow.__file__).resolve().parent != ROOT / "src" / "cstarflow":
        raise SystemExit(f"imported cstarflow from {cstarflow.__file__}, not from this checkout")
    import_s = time.perf_counter() - start

    specs = workloads.scenario_specs(args.workload, args.seed, ROOT / "configs")
    tracer = Tracer(cstarflow) if args.trace else None
    if tracer is not None:
        tracer.install()  # validation is set-up work; trace it too
    try:
        pool = [Scenario(spec, cstarflow) for spec in specs]
    finally:
        if tracer is not None:
            tracer.uninstall()
    args.out.mkdir(parents=True, exist_ok=True)
    warmup = run_one(pool[0], 0, args.out, None)
    setup_s = time.perf_counter() - start

    records = []
    loop_start = time.perf_counter()
    deadline = loop_start + args.seconds
    # A trace run needs one untraced and one traced scenario however short it is.
    minimum = 2 if tracer is not None else 1
    while time.perf_counter() < deadline or len(records) < minimum:
        i = len(records)
        traced = tracer if (tracer is not None and i % 2 == 1) else None
        records.append(run_one(pool[i % len(pool)], i % len(pool), args.out, traced))
    timed_s = time.perf_counter() - loop_start

    result = {
        "import_s": import_s,
        "setup_s": setup_s,
        "timed_s": timed_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "warmup": warmup,
        "scenarios": records,
    }
    if tracer is not None:
        result["setup_trace"] = tracer.setup
        result["errors"] = dict(tracer.errors)
        spans_path = args.out / "spans.jsonl"
        tracer.write_spans(spans_path)
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
