"""surplusminer benchmark: wall time of each subcommand at fixture and paper scale.

    python3 bench/run.py --workload paper-longsim --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 1          # every workload in turn

With --trace 0 each subcommand runs as a child process
(`python -m surplusminer <cmd>`), the way users run it, and the end-to-end
metrics are printed. With --trace 1 the workload's commands run in-process
through `surplusminer.cli.main`, once plain and once with the layer functions
the CLI imports wrapped in spans (layertrace.py), and the per-layer metrics
are printed. Every output is checked; one operation is one subcommand
invocation, and an operation fails when any check on it fails. The last line
of stdout is one JSON object with the keys correct, attempted, failed and
metrics. README.md beside this file describes the workloads and metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import logging
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from pathlib import Path

from gen_inputs import write_inputs
from layertrace import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC_DIR = ROOT / "src"
FIXTURE_DIR = ROOT / "tests" / "data"
WORK_DIR = BENCH_DIR / "work"

COMMANDS = ("ingest", "features", "train", "simulate", "report")
OUTPUTS = {
    "ingest": ("config_used.json", "market_clean.csv", "surplus_monthly.csv", "ingest_summary.txt"),
    "features": ("features.csv",),
    "train": ("forest_model.json", "lstm_model.json", "eval.csv", "train_summary.txt"),
    "simulate": ("fleet.csv", "ledger.csv", "report.txt"),
    "report": ("report.txt",),
}
CASES = {"actual-1", "actual-2", "forest-1", "forest-2", "lstm-1", "lstm-2"}

# Set-up is repeated and its median reported, so that one slow repeat (the
# first one compiles the package's bytecode) does not decide setup_s.
SETUP_REPEATS = 5
# Set-up commands (paper-longsim's ingest, features and train) run in rounds
# until each one's samples add up to MIN_SETUP_COMMAND_S seconds (at most
# MAX_SETUP_REPEATS samples), and each one's median counts: a single
# sub-second, start-up-bound sample is too noisy to report on its own.
MIN_SETUP_COMMAND_S = 2.5
MAX_SETUP_REPEATS = 9
IMPORT_SAMPLES = 5
# A run must end within 180 s: no child may outlive this many seconds after
# start, and no pass starts that would, judged by the previous pass, end later.
DEADLINE_S = 170.0

# Per-layer metrics: span totals in seconds, and call counts for the spans
# that run many times per command.
LAYER_SECONDS = (
    "ingest.parse_market_csv", "ingest.fill_gaps", "ingest.parse_surplus_csv", "ingest.write_market_csv",
    "indicators.build_features", "indicators.write_features_csv",
    "forest.fit_forest", "forest.save_forest", "forest.load_forest", "forest.predict_forest",
    "forest.predict_matrix",
    "lstm.fit_lstm", "lstm.save_lstm", "lstm.load_lstm", "lstm.predict_series", "lstm.predict_window",
    "economics.run_case", "economics.write_ledger_csv",
    "fleet.build_scenarios", "fleet.write_fleet_csv",
)
LAYER_CALLS = (
    "ingest.parse_market_csv", "indicators.build_features", "forest.predict_forest",
    "lstm.predict_window", "economics.run_case",
)


@dataclass(frozen=True)
class Workload:
    name: str
    once: tuple[str, ...]  # commands run once in set-up, timed but not repeated
    measured: tuple[str, ...]  # the command sequence of one measured pass


WORKLOADS = {
    "fixture": Workload("fixture", (), COMMANDS),
    "paper": Workload("paper", (), COMMANDS),
    "paper-longsim": Workload("paper-longsim", ("ingest", "features", "train"), ("simulate", "report")),
}


class SetupError(RuntimeError):
    """The benchmark could not prepare a workload; no result is printed."""


@dataclass
class Op:
    command: str
    seconds: float
    rss_mb: float
    problems: list[str]


class Deadline:
    def __init__(self) -> None:
        self.start = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def remaining(self) -> float:
        return max(1.0, DEADLINE_S - self.elapsed())


def child_env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": str(SRC_DIR) + (os.pathsep + path if path else "")}


def run_child(argv: list[str], log_stem: Path, timeout: float) -> tuple[int, float, float]:
    """Run argv to completion; return (exit code, wall seconds, its max RSS in MB)."""
    with open(f"{log_stem}.out", "wb") as out, open(f"{log_stem}.err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, seconds, usage.ru_maxrss / 1024.0


def data_rows(path: Path) -> int:
    """Rows of a CSV output, not counting its `#` header comment and column header."""
    with open(path, encoding="utf-8") as fh:
        return sum(1 for line in fh if not line.startswith("#")) - 1


def report_problems(text: str) -> list[str]:
    """profit = revenue - cost to the cent in every row, and all six cases present."""
    lines = text.splitlines()
    header = next((i for i, line in enumerate(lines) if line.split()[:1] == ["case"]), None)
    if header is None:
        return ["report.txt has no profit table"]
    problems = []
    seen = set()
    for line in lines[header + 1 :]:
        if not line.strip():
            break
        cells = line.split()
        seen.add(cells[0])
        try:
            revenue, cost, profit = (Decimal(c.replace(",", "")) for c in cells[3:6])
        except (InvalidOperation, ValueError):
            problems.append(f"report.txt row {cells[0]}: unparseable amounts")
            continue
        if profit != revenue - cost:
            problems.append(f"report.txt row {cells[0]}: profit {profit} != {revenue} - {cost}")
    if seen != CASES:
        problems.append(f"report.txt cases {sorted(seen)} are not the six cases")
    return problems


class Checker:
    """Checks the outputs of each operation in one run."""

    def __init__(self, golden: bytes | None) -> None:
        self.golden = golden
        self.first_digest: dict[tuple[str, str], str] = {}

    def check(self, command: str, out: Path, exit_code: int, warnings: int) -> list[str]:
        problems = []
        if exit_code != 0:
            problems.append(f"exit code {exit_code}")
        if warnings:
            problems.append(f"{warnings} WARNING lines on stderr")
        for name in OUTPUTS[command]:
            path = out / name
            if not path.is_file():
                problems.append(f"{name} missing")
                continue
            data = path.read_bytes()
            digest = hashlib.sha256(data).hexdigest()
            if self.first_digest.setdefault((command, name), digest) != digest:
                problems.append(f"{name} differs from the first {command} of this run")
            if name == "report.txt":
                problems += report_problems(data.decode("utf-8"))
                if self.golden is not None and data != self.golden:
                    problems.append("report.txt differs from tests/data/golden_report.txt")
        return problems


def clear_outputs(command: str, out: Path) -> None:
    for name in OUTPUTS[command]:
        (out / name).unlink(missing_ok=True)


def prepare_inputs(workload: Workload, seed: int, dest: Path) -> Path:
    """Write the workload's inputs into dest and return its config path."""
    if workload.name == "fixture":
        dest.mkdir(parents=True)
        for name in ("fixture_config.json", "market.csv", "surplus.csv"):
            shutil.copyfile(FIXTURE_DIR / name, dest / name)
        return dest / "fixture_config.json"
    return write_inputs(dest, seed)[workload.name]


def tree_digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def set_up(workload: Workload, seed: int, work: Path, deadline: Deadline) -> tuple[Path, list[float]]:
    """Prepare inputs SETUP_REPEATS times, each followed by a warm import of the CLI.

    Returns the config of the last repeat and the seconds each repeat took.
    """
    samples, digests = [], set()
    for k in range(SETUP_REPEATS):
        start = time.perf_counter()
        inputs = work / f"inputs{k}"
        config = prepare_inputs(workload, seed, inputs)
        code, _, _ = run_child(
            [sys.executable, "-c", "import surplusminer.cli"], work / f"warm{k}", deadline.remaining()
        )
        samples.append(time.perf_counter() - start)
        if code != 0:
            raise SetupError(f"`import surplusminer.cli` exited {code}; see {work}/warm{k}.err")
        digests.add(tree_digest(inputs))
    if len(digests) != 1:
        raise SetupError("the input generator wrote different files for one seed")
    return config, samples


def child_op(command: str, config: Path, out: Path, checker: Checker, deadline: Deadline) -> Op:
    clear_outputs(command, out)
    argv = [sys.executable, "-m", "surplusminer", command, "--config", str(config), "--out", str(out)]
    stem = out.parent / f"log-{command}"
    code, seconds, rss_mb = run_child(argv, stem, deadline.remaining())
    stderr = Path(f"{stem}.err").read_text(encoding="utf-8", errors="replace")
    warnings = sum(line.startswith("WARNING") for line in stderr.splitlines())
    return Op(command, seconds, rss_mb, checker.check(command, out, code, warnings))


def golden_for(workload: Workload) -> bytes | None:
    return (FIXTURE_DIR / "golden_report.txt").read_bytes() if workload.name == "fixture" else None


def sample_rounds(commands, config: Path, out: Path, checker: Checker, deadline: Deadline) -> list[list[Op]]:
    """Run commands in rounds, in order, until each one's samples add up to
    MIN_SETUP_COMMAND_S or number MAX_SETUP_REPEATS. The first round runs every
    command; later rounds skip those already sampled enough. Returns each
    command's ops."""
    samples: list[list[Op]] = [[] for _ in commands]
    while True:
        due = [i for i, ops in enumerate(samples) if not ops or (
            sum(op.seconds for op in ops) < MIN_SETUP_COMMAND_S and len(ops) < MAX_SETUP_REPEATS)]
        if not due:
            return samples
        for i in due:
            samples[i].append(child_op(commands[i], config, out, checker, deadline))


def run_pass(commands, config: Path, out: Path, checker: Checker, deadline: Deadline) -> list[Op]:
    return [child_op(cmd, config, out, checker, deadline) for cmd in commands]


def timed_run(workload: Workload, seed: int, seconds: float, work: Path, deadline: Deadline):
    """End-to-end metrics: every command as a child process. After one untimed
    warm-up pass, passes over the measured commands, each command once per
    pass, repeat until `seconds` pass."""
    config, setup_samples = set_up(workload, seed, work, deadline)
    checker = Checker(golden_for(workload))
    out = work / "out"
    out.mkdir()
    once = sample_rounds(workload.once, config, out, checker, deadline)
    setup_s = statistics.median(setup_samples) + sum(median_seconds(ops) for ops in once)

    warmup = run_pass(workload.measured, config, out, checker, deadline)
    passes: list[list[Op]] = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(workload.measured, config, out, checker, deadline))
        last = sum(op.seconds for op in passes[-1])
        if time.perf_counter() - start >= seconds or deadline.elapsed() + last > DEADLINE_S:
            break

    timed = [op for group in once + passes for op in group]
    samples = {
        "setup_s": ([setup_s], "s"),
        "pipeline_s": ([sum(op.seconds for op in p) for p in passes], "s"),
    }
    for cmd in COMMANDS:
        samples[f"{cmd}_s"] = ([op.seconds for op in timed if op.command == cmd], "s")
    samples["peak_rss_mb"] = ([max(op.rss_mb for op in p) for p in passes], "MB")
    ops = timed + warmup
    return ops, samples


def median_seconds(ops: list[Op]) -> float:
    return statistics.median(op.seconds for op in ops)


class WarningCounter(logging.Handler):
    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record: logging.LogRecord) -> None:
        self.count += 1


def in_process_pass(cli, commands, config: Path, out: Path, checker: Checker, tracer: Tracer | None):
    """Run commands through cli.main in this process; return (command seconds, ops)."""
    out.mkdir()
    counter = WarningCounter()
    root = logging.getLogger()
    root.addHandler(counter)  # also makes cli.main's logging.basicConfig a no-op
    root.setLevel(logging.INFO)
    ops = []
    try:
        for cmd in commands:
            clear_outputs(cmd, out)
            counter.count = 0
            span = tracer.span(f"cli.{cmd}") if tracer else contextlib.nullcontext()
            with contextlib.redirect_stdout(io.StringIO()):
                start = time.perf_counter()
                with span:
                    code = cli.main([cmd, "--config", str(config), "--out", str(out)])
                seconds = time.perf_counter() - start
            ops.append(Op(cmd, seconds, 0.0, checker.check(cmd, out, code, counter.count)))
    finally:
        root.removeHandler(counter)
    return sum(op.seconds for op in ops), ops


def import_seconds(work: Path, deadline: Deadline) -> list[float]:
    """`import surplusminer.cli` in fresh interpreters, timed inside each one."""
    code = "import time; t = time.perf_counter(); import surplusminer.cli; print(time.perf_counter() - t)"
    samples = []
    for k in range(IMPORT_SAMPLES):
        exit_code, _, _ = run_child([sys.executable, "-c", code], work / f"import{k}", deadline.remaining())
        if exit_code != 0:
            raise SetupError(f"`import surplusminer.cli` exited {exit_code}")
        samples.append(float(Path(f"{work}/import{k}.out").read_text()))
    return samples


def layer_metrics(tracer: Tracer, out: Path) -> dict[str, tuple[float, str]]:
    summary = tracer.summary()
    metrics: dict[str, tuple[float, str]] = {}
    for name in LAYER_SECONDS:
        if name not in tracer.missing:
            metrics[f"{name}_s"] = (summary.get(name, {}).get("total_s", 0.0), "s")
    for name in LAYER_CALLS:
        if name not in tracer.missing:
            metrics[f"{name}.calls"] = (summary.get(name, {}).get("calls", 0), "count")
    for cmd in COMMANDS:
        metrics[f"cli.{cmd}.self_s"] = (summary[f"cli.{cmd}"]["self_s"], "s")
    if "lstm.fit_lstm_s" in metrics:
        epochs = json.loads((out / "config_used.json").read_text(encoding="utf-8"))["lstm"]["epochs"]
        metrics["lstm.epoch_mean_s"] = (metrics["lstm.fit_lstm_s"][0] / epochs, "s")

    files = {
        "forest.model_bytes": ("forest_model.json", lambda p: p.stat().st_size, "bytes"),
        "lstm.model_bytes": ("lstm_model.json", lambda p: p.stat().st_size, "bytes"),
        "economics.ledger_rows": ("ledger.csv", data_rows, "count"),
        "ingest.market_rows": ("market_clean.csv", data_rows, "count"),
        "indicators.feature_rows": ("features.csv", data_rows, "count"),
        "ingest.gap_days": ("ingest_summary.txt", gap_days, "count"),
    }
    for metric, (name, read, unit) in files.items():
        value = read(out / name) if (out / name).is_file() else None
        if value is not None:
            metrics[metric] = (value, unit)
    return metrics


def gap_days(path: Path) -> int | None:
    prefix = "gap days filled by carry-forward:"
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith(prefix):
            return int(line[len(prefix) :])
    return None


def traced_run(workload: Workload, seed: int, work: Path, deadline: Deadline):
    """Per-layer metrics: the whole command sequence in-process, plain then traced."""
    config, _ = set_up(workload, seed, work, deadline)
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))
    cli = importlib.import_module("surplusminer.cli")
    import_s = statistics.median(import_seconds(work, deadline))

    commands = workload.once + workload.measured
    checker = Checker(golden_for(workload))
    plain_s, ops = in_process_pass(cli, commands, config, work / "plain", checker, None)
    tracer = Tracer(run_id=f"{workload.name}-seed{seed}-pid{os.getpid()}")
    with tracer.installed(cli):
        traced_s, traced_ops = in_process_pass(cli, commands, config, work / "traced", checker, tracer)
    ops += traced_ops
    tracer.write(WORK_DIR / f"trace-{workload.name}-seed{seed}.json")
    if tracer.missing:
        print(f"{workload.name}: not traced, missing from surplusminer.cli: {', '.join(tracer.missing)}")

    metrics = layer_metrics(tracer, work / "traced")
    metrics["cli.import_s"] = (import_s, "s")
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
    return ops, {name: ([value], unit) for name, (value, unit) in metrics.items()}


def tail_note(values: list[float]) -> str:
    """The highest of p99/p95/p90 with at least ten samples beyond it, if any."""
    for p in (99, 95, 90):
        if len(values) * (100 - p) / 100 >= 10:
            return f", p{p} {statistics.quantiles(values, n=100)[p - 1]:.6g}"
    return ""


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    deadline = Deadline()
    work = WORK_DIR / f"{workload.name}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if trace:
            ops, samples = traced_run(workload, seed, work, deadline)
        else:
            ops, samples = timed_run(workload, seed, seconds, work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [op for op in ops if op.problems]
    print(f"workload {workload.name} (seed {seed}, trace {int(trace)}): "
          f"operations attempted {len(ops)}, failed {len(failed)}")
    for op in failed[:10]:
        print(f"  FAILED {op.command}: {'; '.join(op.problems)}")
    metrics = {}
    for name, (values, unit) in samples.items():
        value = statistics.median(values)
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:<32} {value:>14.6g} {unit:<6} (median of {len(values)}{tail_note(values)})")
    return {"correct": not failed, "attempted": len(ops), "failed": len(failed), "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark the surplusminer subcommands.")
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1, help="seed of the paper-scale input generator")
    parser.add_argument("--seconds", type=float, default=35.0, help="how long to repeat measured passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    needed = (SRC_DIR / "surplusminer" / "cli.py", FIXTURE_DIR / "golden_report.txt")
    absent = [str(p) for p in needed if not p.is_file()]
    if absent:
        print(f"bench: not a surplusminer checkout, missing {', '.join(absent)}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {
            name: run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
            for name in names
        }
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 3
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
