"""Spans around the calls into each gausspml module, recorded from outside.

`Recorder.install` replaces every public function of the traced modules,
and the public methods of `Mechanism`, with a wrapper that appends one
span (name, start, end, parent, points) to an in-memory list. Nothing in
the package is edited: the wrapper is bound into every module namespace
that holds the original function, so calls made inside the package go
through it too. `uninstall` puts the originals back.

`summarize` turns the spans into the per-layer metrics; `import_split`
reads `python -X importtime` from a fresh interpreter.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import statistics
import subprocess
import sys
import time

MODULES = ("cli", "mechanism", "leakage", "envelope", "verify", "priors", "numerics")

# Mechanism methods whose argument at this position is the array of y
# points; its size is recorded as the span's point count.
_POINT_ARG = {
    "marginal_density": 1,
    "marginal_cdf": 1,
    "posterior_mean": 1,
    "posterior_variance": 1,
    "info_density": 2,
}

_CHECKS = (
    "check_concavity_identity",
    "check_interval_monotonicity",
    "check_tail_worst_bound",
    "check_bathtub_optimality",
    "check_brascamp_lieb_bound",
)

# Per-layer metrics reported by a traced run, in BENCHMARK.json order.
LAYER_METRICS = (
    ("import.total_ms", "ms"),
    ("import.numpy_ms", "ms"),
    ("import.scipy_special_ms", "ms"),
    ("import.scipy_interpolate_ms", "ms"),
    ("import.gausspml_ms", "ms"),
    ("cli.parse_config.ms", "ms"),
    ("cli.run.ms", "ms"),
    ("mechanism.construct.ms", "ms"),
    ("mechanism.construct.calls", "count"),
    ("mechanism.marginal_quantile.ms", "ms"),
    ("mechanism.marginal_quantile.calls", "count"),
    ("mechanism.marginal_cdf.ms", "ms"),
    ("mechanism.marginal_cdf.calls", "count"),
    ("mechanism.marginal_cdf.points", "count"),
    ("mechanism.cdf_calls_per_quantile", "count"),
    ("mechanism.posterior_variance.ms", "ms"),
    ("mechanism.info_density.ms", "ms"),
    ("leakage.interval_leakage.ms", "ms"),
    ("leakage.set_leakage_oracle.ms", "ms"),
    ("leakage.event_mass.ms", "ms"),
    ("envelope.condition_report.ms", "ms"),
    ("envelope.delta0_estimate.ms", "ms"),
    ("envelope.envelope_bruteforce_lower_bound.ms", "ms"),
    ("envelope.envelope_curve.ms", "ms"),
    ("envelope.envelope_curve.self_ms", "ms"),
    ("priors.check_strong_log_concavity.ms", "ms"),
    ("verify.run_suite.ms", "ms"),
) + tuple((f"verify.{c}.ms", "ms") for c in _CHECKS) + (
    ("numerics.find_root_increasing.calls", "count"),
    ("numerics.golden_section_max.calls", "count"),
    ("trace.overhead_ms", "ms"),
)

OP = "bench.op"
SETUP = "bench.setup"


class Recorder:
    """In-memory span list plus the wrappers that fill it."""

    def __init__(self):
        self.names = []
        self.spans = []  # (name id, start, end, parent index or -1, points)
        self._stack = []
        self._patches = []  # (owner, attribute, original, wrapper)

    def _name_id(self, name):
        self.names.append(name)
        return len(self.names) - 1

    def span(self, name):
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, self._name_id(name))

    def _wrap(self, name, fn, point_arg):
        nid = self._name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                pts = 1
                if point_arg is not None and len(args) > point_arg:
                    pts = _size(args[point_arg])
                spans[idx] = (nid, t0, t1, parent, pts)

        return wrapper

    def install(self):
        """Wrap the traced functions; returns self."""
        if self._patches:
            for owner, attr, _, wrapper in self._patches:
                setattr(owner, attr, wrapper)
            return self
        mods = [importlib.import_module("gausspml")] + [
            importlib.import_module(f"gausspml.{short}") for short in MODULES
        ]
        for short in MODULES:
            mod = importlib.import_module(f"gausspml.{short}")
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapper = self._wrap(f"{short}.{attr}", fn, None)
                for holder in mods:
                    for key, val in list(vars(holder).items()):
                        if val is fn:
                            self._patches.append((holder, key, fn, wrapper))
        mech = importlib.import_module("gausspml.mechanism").Mechanism
        for attr, fn in list(vars(mech).items()):
            if not inspect.isfunction(fn):
                continue
            if attr == "__init__":
                name = "mechanism.construct"
            elif attr.startswith("_"):
                continue
            else:
                name = f"mechanism.{attr}"
            self._patches.append((mech, attr, fn, self._wrap(name, fn, _POINT_ARG.get(attr))))
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        return self

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def records(self):
        return [(self.names[s[0]],) + tuple(s[1:]) for s in self.spans]


class _Span:
    def __init__(self, rec, nid):
        self._rec, self._nid = rec, nid

    def __enter__(self):
        rec = self._rec
        self._idx = len(rec.spans)
        rec.spans.append(None)
        self._parent = rec._stack[-1] if rec._stack else -1
        rec._stack.append(self._idx)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        t1 = time.perf_counter()
        self._rec._stack.pop()
        self._rec.spans[self._idx] = (self._nid, self._t0, t1, self._parent, 1)
        return False


def _size(a):
    size = getattr(a, "size", None)
    if size is not None:
        return int(size)
    try:
        return len(a)
    except TypeError:
        return 1


def append_file(records, path):
    """Move the spans a traced process wrote to `path` onto `records`."""
    base = len(records)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            name, t0, t1, parent, pts = json.loads(line)
            records.append((name, t0, t1, parent + base if parent >= 0 else -1, pts))
    os.unlink(path)


def write(path, records):
    """Write spans as JSON lines: [name, start, end, parent, points]."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(list(rec)) + "\n")


def _totals(records, root):
    """Busy ms, self ms, calls and points per span name, over spans under `root`.

    Busy time counts a span only when no ancestor has the same name; self
    time is the span minus its children. Also returns the number of
    `mechanism.marginal_cdf` calls made inside `marginal_quantile`.
    """
    outer = [None] * len(records)
    child = [0.0] * len(records)
    for i, (name, t0, t1, parent, _) in enumerate(records):
        outer[i] = name if parent < 0 else outer[parent]
        if parent >= 0:
            child[parent] += t1 - t0
    table = {}
    cdf_in_quantile = 0
    for i, (name, t0, t1, parent, pts) in enumerate(records):
        if outer[i] != root:
            continue
        ancestors = set()
        p = parent
        while p >= 0:
            ancestors.add(records[p][0])
            p = records[p][3]
        row = table.setdefault(name, {"ms": 0.0, "self_ms": 0.0, "calls": 0, "points": 0})
        if name not in ancestors:
            row["ms"] += (t1 - t0) * 1e3
        row["self_ms"] += (t1 - t0 - child[i]) * 1e3
        row["calls"] += 1
        row["points"] += pts
        if name == "mechanism.marginal_cdf" and "mechanism.marginal_quantile" in ancestors:
            cdf_in_quantile += 1
    return table, cdf_in_quantile


def summarize(records, construct_scope):
    """Per-layer metrics, per operation, from a span list.

    Spans under a `bench.op` root are divided by the number of those
    roots. Construction is per operation when construct_scope is "op"
    (each CLI process builds its mechanism) and per set-up when it is
    "setup" (warm workloads build theirs once, under `bench.setup`).
    """
    n_ops = sum(1 for r in records if r[0] == OP)
    n_setups = sum(1 for r in records if r[0] == SETUP)
    ops, cdf_in_quantile = _totals(records, OP)
    setups, _ = _totals(records, SETUP)
    out = {}
    for metric, _ in LAYER_METRICS:
        if metric.startswith(("import.", "trace.")):
            continue
        if metric == "mechanism.cdf_calls_per_quantile":
            q = ops.get("mechanism.marginal_quantile", {}).get("calls", 0)
            out[metric] = cdf_in_quantile / q if q else 0.0
            continue
        name, _, kind = metric.rpartition(".")
        table, units = ops, n_ops
        if name == "mechanism.construct" and construct_scope == "setup":
            table, units = setups, n_setups
        out[metric] = table.get(name, {}).get(kind, 0) / units if units else 0.0
    return out, n_ops


def _importtime_once(root, env):
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import gausspml"],
        cwd=root, env=env, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"import gausspml failed:\n{proc.stderr[-2000:]}")
    groups = {"numpy": 0.0, "scipy.special": 0.0, "scipy.interpolate": 0.0}
    gausspml_self = 0.0
    total = None
    stack = []  # (depth, group) of the open ancestors
    # importtime prints a module after its children, so a line's ancestors
    # are the later lines of smaller depth; read bottom-up
    lines = [ln for ln in proc.stderr.splitlines() if ln.startswith("import time:")][1:]
    for line in reversed(lines):
        head, cum, label = line.split("|")
        self_us = float(head.split(":")[1])
        cum_us = float(cum)
        depth = len(label) - len(label.lstrip())
        name = label.strip()
        while stack and stack[-1][0] >= depth:
            stack.pop()
        group = next((g for g in groups if name == g or name.startswith(g + ".")), None)
        # an import is charged to the outermost group it runs under, so
        # the three groups never count the same microsecond twice
        if group is not None and all(g is None for _, g in stack):
            groups[group] += cum_us
        if name == "gausspml" or name.startswith("gausspml."):
            gausspml_self += self_us
        if name == "gausspml" and not stack:
            total = cum_us
        stack.append((depth, group))
    if total is None:
        raise RuntimeError("importtime output has no top-level gausspml line")
    return {
        "import.total_ms": total / 1e3,
        "import.numpy_ms": groups["numpy"] / 1e3,
        "import.scipy_special_ms": groups["scipy.special"] / 1e3,
        "import.scipy_interpolate_ms": groups["scipy.interpolate"] / 1e3,
        "import.gausspml_ms": gausspml_self / 1e3,
    }


def import_split(root, env, repeats=3):
    """Median over `repeats` fresh interpreters of the importtime split."""
    runs = [_importtime_once(root, env) for _ in range(repeats)]
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}
