"""Regenerate every pinned output and print what moved.

Usage, from any directory: python3 tests/data/gen_goldens.py

Runs ingest -> report on two workloads, each in a temporary directory:
- fixture, on fixture_config.json;
- paper-longsim, on bench/gen_inputs.py's files at generator seed 1 in
  inputs/ with the run in out/, the layout paper-longsim.sha256 is checked in.
Then it rewrites the pinned files from those runs: golden_report.txt from the
fixture's report.txt, the digest of each file golden_digests.json lists, and
the digest lines of paper-longsim.sha256 (its comment header and file list
stay). To pin another output, list it there with any digest and run this.

It also runs both workloads on the source and fixture of git's HEAD and
prints, per workload, a table of each value that differs between the two
runs: the config hash (tests/test_cli.py pins the fixture's as
FIXTURE_HASH), each case's revenue, profit and vs_actual, and each model's
MAE and R2; then it names each pinned file whose bytes changed. With no
change since HEAD it rewrites every pinned file as it was and the tables are
empty.
"""
from __future__ import annotations

import csv
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "bench"))

from gen_inputs import write_inputs  # noqa: E402

COMMANDS = ("ingest", "features", "train", "simulate", "report")
GENERATOR_SEED = 1
SHA256_FILE = HERE / "paper-longsim.sha256"
DIGESTS_FILE = HERE / "golden_digests.json"
REPORT_FILE = HERE / "golden_report.txt"


def run_pipeline(src: Path, config: Path, out: Path) -> None:
    """ingest -> report on `config` into `out`, with the package in `src`."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    for cmd in COMMANDS:
        argv = [sys.executable, "-m", "surplusminer", cmd, "--config", str(config), "--out", str(out)]
        proc = subprocess.run(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            sys.exit(f"{cmd} on {config} with {src} exited {proc.returncode}:\n{proc.stderr}")


def extract_head(dest: Path) -> None:
    """The src/ and tests/data/ trees of git's HEAD, written under `dest`."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "HEAD", "src", "tests/data"], capture_output=True, check=True
    ).stdout
    dest.mkdir()
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run_values(out: Path) -> dict[str, str]:
    """The values a change table compares, by name, as a run's outputs print them."""
    values = {"config hash": json.loads((out / "config_used.json").read_text(encoding="utf-8"))["config_hash"]}
    for line in (out / "report.txt").read_text(encoding="utf-8").splitlines()[4:]:
        case, _, _, revenue, _, profit, *_, vs_actual = line.split()
        values.update({f"{case} revenue_usd": revenue, f"{case} profit_usd": profit, f"{case} vs_actual": vs_actual})
    with open(out / "eval.csv", encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(line for line in fh if not line.startswith("#")):
            values.update({f"{row['model']} mae": row["mae"], f"{row['model']} r2": row["r2"]})
    return values


def change_table(old: dict[str, str], new: dict[str, str]) -> list[tuple[str, str, str]]:
    """(name, old value, new value) for each value that differs; '-' for one a run lacks."""
    names = dict.fromkeys([*old, *new])
    return [(name, old.get(name, "-"), new.get(name, "-")) for name in names if old.get(name) != new.get(name)]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def rewrite(path: Path, text: str) -> bool:
    """Write `text` to `path` if it holds other bytes; whether it did."""
    if path.read_text(encoding="utf-8") == text:
        return False
    path.write_text(text, encoding="utf-8")
    return True


def rewrite_sha256_file(path: Path, root: Path) -> list[str]:
    """Give each `<digest>  <name>` line of a sha256sum file the digest of
    root/<name>, keeping comment lines and the order; the names that changed."""
    lines, changed = [], []
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line.startswith("#"):
            digest, name = line.split("  ", 1)
            line = f"{sha256(root / name)}  {name}"
            if not line.startswith(digest):
                changed.append(name)
        lines.append(line)
    rewrite(path, "\n".join(lines) + "\n")
    return changed


def rewrite_digests_json(path: Path, out: Path) -> list[str]:
    """Give each name of a {name: sha256} file the digest of out/<name>; the names that changed."""
    old = json.loads(path.read_text(encoding="utf-8"))
    new = {name: sha256(out / name) for name in old}
    rewrite(path, json.dumps(new, indent=2) + "\n")
    return [name for name in old if old[name] != new[name]]


def print_changes(workload: str, old: dict[str, str], new: dict[str, str], files: list[str]) -> None:
    rows = [("value", "HEAD", "this tree"), *change_table(old, new)]
    widths = [max(len(row[i]) for row in rows) for i in range(3)]
    print(f"{workload}:")
    for row in rows:
        print("  " + "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
    print(f"  pinned files changed: {', '.join(files) or 'none'}")


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        base = tmp / "base"
        extract_head(base)

        fixture = tmp / "fixture"
        run_pipeline(ROOT / "src", HERE / "fixture_config.json", fixture / "out")
        run_pipeline(base / "src", base / "tests/data/fixture_config.json", fixture / "base")
        report = (fixture / "out" / "report.txt").read_text(encoding="utf-8")
        files = ["golden_report.txt"] if rewrite(REPORT_FILE, report) else []
        files += rewrite_digests_json(DIGESTS_FILE, fixture / "out")
        new_values = run_values(fixture / "out")
        print_changes("fixture", run_values(fixture / "base"), new_values, files)

        paper = tmp / "paper-longsim"
        config = write_inputs(paper / "inputs", GENERATOR_SEED)["paper-longsim"]
        run_pipeline(ROOT / "src", config, paper / "out")
        run_pipeline(base / "src", config, paper / "base")
        files = rewrite_sha256_file(SHA256_FILE, paper)
        print_changes("paper-longsim", run_values(paper / "base"), run_values(paper / "out"), files)
    print("fixture config hash (FIXTURE_HASH):", new_values["config hash"])


if __name__ == "__main__":
    main()
