"""Regenerate the committed golden outputs (golden_report.txt, golden_digests.json).

Run from this directory: python3 gen_goldens.py
Runs the fixture pipeline (ingest, features, train, simulate) once in a
temporary directory, then rewrites golden_report.txt from its report.txt and
the sha256 of each file already listed in golden_digests.json. It prints the
config hash, which tests/test_cli.py pins as FIXTURE_HASH.
"""
from __future__ import annotations

import hashlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

from surplusminer.cli import main  # noqa: E402


def run_pipeline(out: Path) -> None:
    for cmd in ("ingest", "features", "train", "simulate"):
        rc = main([cmd, "--config", str(HERE / "fixture_config.json"), "--out", str(out)])
        if rc != 0:
            sys.exit(f"{cmd} exited {rc}")


def write_goldens(out: Path) -> str:
    """Copy the report and re-digest the listed files; return the config hash."""
    shutil.copyfile(out / "report.txt", HERE / "golden_report.txt")
    digests_path = HERE / "golden_digests.json"
    names = json.loads(digests_path.read_text(encoding="utf-8"))
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names}
    digests_path.write_text(json.dumps(digests, indent=2) + "\n", encoding="utf-8")
    return json.loads((out / "config_used.json").read_text(encoding="utf-8"))["config_hash"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        run_pipeline(Path(tmp))
        config_hash = write_goldens(Path(tmp))
    print("wrote", HERE / "golden_report.txt", "and", HERE / "golden_digests.json")
    print("config hash (FIXTURE_HASH):", config_hash)
