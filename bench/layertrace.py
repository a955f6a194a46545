"""In-process layer tracing for the benchmark, from outside the package.

The CLI module binds each layer function it calls under its own namespace
(`from .forest import fit_forest, ...`). Replacing those bindings with timing
wrappers records one span per call at each layer boundary, without touching
the package. Spans stay in memory until the caller writes them out.
"""
from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from functools import wraps
from pathlib import Path

# The layer functions surplusminer.cli imports, by layer (module) name.
LAYER_FUNCTIONS = {
    "ingest": ("parse_market_csv", "fill_gaps", "parse_surplus_csv", "monthly_totals", "write_market_csv"),
    "indicators": ("build_features", "write_features_csv"),
    "forest": ("fit_forest", "save_forest", "load_forest", "predict_forest", "predict_matrix"),
    "lstm": ("fit_lstm", "save_lstm", "load_lstm", "predict_series", "predict_window"),
    "metrics": ("evaluate", "write_eval_csv"),
    "fleet": ("month_capacity", "build_scenarios", "write_fleet_csv"),
    "economics": ("run_case", "attach_deltas", "depreciation_cost", "write_ledger_csv"),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in Tracer.spans
    run_id: str

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; the innermost open span is the parent of a new one."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.run_id))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = time.perf_counter()

    def wrap(self, name: str, fn):
        @wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def installed(self, module):
        """Wrap every LAYER_FUNCTIONS name bound in `module`; restore them on exit.

        A name the module no longer binds is recorded in `missing` and skipped.
        """
        originals = {}
        for layer, names in LAYER_FUNCTIONS.items():
            for name in names:
                fn = getattr(module, name, None)
                if not callable(fn):
                    self.missing.append(f"{layer}.{name}")
                    continue
                originals[name] = fn
                setattr(module, name, self.wrap(f"{layer}.{name}", fn))
        try:
            yield
        finally:
            for name, fn in originals.items():
                setattr(module, name, fn)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: total seconds, self seconds (minus direct children) and calls."""
        child_seconds = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_seconds[s.parent] += s.seconds
        out: dict[str, dict[str, float]] = {}
        for s, children in zip(self.spans, child_seconds):
            entry = out.setdefault(s.name, {"total_s": 0.0, "self_s": 0.0, "calls": 0})
            entry["total_s"] += s.seconds
            entry["self_s"] += s.seconds - children
            entry["calls"] += 1
        return out

    def write(self, path: Path) -> None:
        doc = {
            "run_id": self.run_id,
            "missing": self.missing,
            "summary": self.summary(),
            "spans": [asdict(s) for s in self.spans],
        }
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
