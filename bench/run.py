"""End-to-end benchmark of the homomesy CLI.

    python3 bench/run.py --workload grid-sweep --seed 1 --seconds 36 --trace 0

Runs one workload's ladder of `homomesy` invocations, in this process, through
`homomesy.cli.main(argv)` with standard output captured in memory, round after
round until --seconds have passed (whole rounds only). Every case's output is
checked against closed forms computed apart from the program (oracle.py).

--trace 0 reports the end-to-end metrics: setup_s (median of fresh
interpreters that import homomesy.cli and write the workload's inputs),
wall_s and cpu_s (the sum over cases of each case's median over rounds),
states_per_s and peak_rss_mb. --trace 1 alternates untraced rounds with
rounds whose calls into each layer are recorded as spans (spans.py), and
reports the per-layer metrics and trace.overhead_s.

The program is imported from src/ beside this directory, never from an
installed copy; without it the benchmark exits 1 and prints no result. The
last line of standard output is the result as one JSON object. Inputs, the
result and the spans of the last traced round are written under bench-out/.
"""
from __future__ import annotations

import argparse
import gc
import io
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
import zlib
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import ladder
import oracle
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / "bench-out"
# set-up probes before the first round and after each round, so that setup_s
# is a median over the whole run rather than over one moment of it
PROBES_FIRST, PROBES_PER_ROUND = 3, 2


def load_cli():
    """Import homomesy.cli from this checkout's src/, refusing any other copy."""
    src = ROOT / "src"
    if not (src / "homomesy" / "cli.py").is_file():
        raise ImportError(f"no homomesy package under {src}")
    sys.path.insert(0, str(src))
    import homomesy.cli as cli

    if Path(cli.__file__).resolve().parent.parent != src.resolve():
        raise ImportError(f"homomesy was imported from {cli.__file__}, not {src}")
    return cli


def probe_setup(workload: str, seed: int, directory: Path) -> float:
    """Seconds from launching a fresh interpreter until it has imported
    homomesy.cli and written the workload's inputs (perf_counter is the
    system-wide monotonic clock, so the child's reading is comparable)."""
    begin = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), workload, str(seed), str(directory)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.split()[-1]) - begin


class Runner:
    """Runs rounds of one workload's cases and keeps per-case results."""

    def __init__(self, cli, cases):
        self.cli = cli
        self.cases = cases
        self.state_counts = [oracle.state_count(case) for case in cases]
        self.walls = [[] for _ in cases]
        self.cpus = [[] for _ in cases]
        self.digests: list = [None] * len(cases)
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.output_bytes = 0

    def round(self, tracer: spans.Tracer | None = None):
        """One pass over every case; returns the round's wall time and, when
        traced, each case's span index range."""
        ranges = []
        round_start = time.perf_counter()
        output_bytes = 0
        for i, case in enumerate(self.cases):
            out, err = io.StringIO(), io.StringIO()
            first = len(tracer) if tracer is not None else 0
            gc.collect()  # each case starts without the previous case's garbage
            wall0, cpu0 = time.perf_counter(), time.process_time()
            try:
                with redirect_stdout(out), redirect_stderr(err):
                    code = self.cli.main(list(case.argv))
            except SystemExit as exc:
                code = exc.code
            except Exception:  # a traceback from the program fails the case
                code = "exception"
                err.write(traceback.format_exc())
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
            ranges.append((first, len(tracer) if tracer is not None else 0))
            self.attempted += 1
            text = out.getvalue()
            data = text.encode()
            output_bytes += len(data)
            if code != 0:
                self.failed += 1
                print(f"FAILED ({code}): {case.label}\n{err.getvalue()[-2000:]}",
                      file=sys.stderr)
                continue
            problems = oracle.check(case, text, self.state_counts[i])
            digest = zlib.crc32(data)
            if self.digests[i] is None:
                self.digests[i] = digest
            elif self.digests[i] != digest:
                problems.append("output differs from an earlier round")
            if problems:
                self.failed += 1
                self.wrong.append(case.label)
                print(f"WRONG: {case.label}: {'; '.join(problems)}", file=sys.stderr)
            else:
                self.walls[i].append(wall)
                self.cpus[i].append(cpu)
        self.output_bytes = output_bytes
        return time.perf_counter() - round_start, ranges

    def end_to_end(self, setup_s: float) -> dict:
        walls = [statistics.median(w) for w in self.walls if w]
        cpus = [statistics.median(c) for c in self.cpus if c]
        wall_s = sum(walls)
        states = sum(n for n, w in zip(self.state_counts, self.walls) if w)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return {
            "setup_s": (setup_s, "s"),
            "wall_s": (wall_s, "s"),
            "cpu_s": (sum(cpus), "s"),
            "states_per_s": (states / wall_s if wall_s else 0.0, "states/s"),
            "peak_rss_mb": (peak_kb / 1024, "MB"),
        }


def _room_for(begin: float, step: float, seconds: float) -> bool:
    """Whether another step of this length still ends within the run."""
    return time.perf_counter() - begin + step <= seconds


def run_traced(runner: Runner, seconds: float, spans_path: Path):
    """Alternate untraced and traced rounds; per-layer metrics are medians
    over the traced rounds, and their counts must repeat exactly."""
    tracer = spans.Tracer()
    plain, traced, layer_rounds = [], [], []
    missing_targets: list[str] = []
    begin = time.perf_counter()
    while not plain or not traced or _room_for(begin, max(plain + traced), seconds):
        if len(plain) <= len(traced):
            plain.append(runner.round()[0])
            continue
        tracer.clear()
        missing_targets = tracer.install()
        try:
            wall, ranges = runner.round(tracer)
        finally:
            tracer.uninstall()
        traced.append(wall)
        metrics, missing_roles = spans.summarize(tracer, ranges, runner.cases,
                                                 runner.state_counts)
        layer_rounds.append(metrics)
    tracer.write(spans_path, {"cases": [c.label for c in runner.cases], "ranges": ranges})

    first = layer_rounds[0]
    counts_repeat = True
    result = {}
    for key, (value, unit) in first.items():
        if key.endswith("_s"):
            value = statistics.median(r[key][0] for r in layer_rounds)
        elif any(r[key][0] != value for r in layer_rounds):
            counts_repeat = False
            print(f"count {key} differs between traced rounds", file=sys.stderr)
        result[key] = (value, unit)
    result["cli.output_bytes"] = (runner.output_bytes, "bytes")
    result["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
    for item in missing_targets:
        print(f"missing trace target: {item}", file=sys.stderr)
    for role in missing_roles:
        print(f"layer role {role} saw no call on a case that exercises it; "
              "its metrics are reported missing", file=sys.stderr)
    return result, counts_repeat


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=ladder.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        cli = load_cli()
    except ImportError as exc:
        print(f"cannot load the program: {exc}", file=sys.stderr)
        return 1

    OUT.mkdir(exist_ok=True)
    inputs = OUT / "inputs" / args.workload
    cases = ladder.build(args.workload, args.seed, inputs)
    runner = Runner(cli, cases)
    setup: list[float] = []
    if args.trace:
        metrics, correct = run_traced(runner, args.seconds,
                                      OUT / f"spans-{args.workload}.jsonl")
    else:
        def probes(count):
            return [probe_setup(args.workload, args.seed, OUT / "probe" / args.workload)
                    for _ in range(count)]

        setup += probes(PROBES_FIRST)
        begin, step = time.perf_counter(), 0.0
        while runner.attempted == 0 or _room_for(begin, step, args.seconds):
            started = time.perf_counter()
            runner.round()
            setup += probes(PROBES_PER_ROUND)
            step = time.perf_counter() - started
        metrics = runner.end_to_end(statistics.median(setup))
        correct = True
    correct = correct and not runner.wrong

    for key, (value, unit) in metrics.items():
        print(f"{key:42s} {value:14.6f} {unit}")
    print(f"cases attempted {runner.attempted}, failed {runner.failed}")
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    line = json.dumps(result)
    samples = {case.label: {"wall_s": w, "cpu_s": c}
               for case, w, c in zip(runner.cases, runner.walls, runner.cpus)}
    samples["setup_s"] = setup
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({**result, "seed": args.seed, "samples": samples}, indent=1) + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
