"""Command-line surface.

One command per process: parse a JSON config plus flags into a
RunConfig, run the requested computation, and emit a CSV or JSON
table. Flags and config fields pass the same checks (the field, number
and endpoint checks of errors.py), so a value is accepted or rejected
alike whichever way it arrives, and `--config` may come before or
after the subcommand. Exit status 0 on success (for verify: all checks
passed), 1 on failing checks, 2 on invalid configuration, 3 on
numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import tempfile
from dataclasses import dataclass, field, replace

import numpy as np

from .envelope import envelope_bruteforce_lower_bound, envelope_curve
from .errors import (
    DomainError,
    ModelError,
    NumericalError,
    check_fields,
    check_count,
    check_number,
    check_probability,
    decode_endpoint,
    encode_endpoint,
)
from .leakage import (
    Interval,
    event_mass,
    interval_leakage,
    partition_to_json,
    set_leakage_oracle,
)
from .mechanism import Mechanism
from .numerics import DEFAULT_CONFIG, QuadratureConfig
from .priors import GaussianPrior, prior_from_json
from .verify import _suite_names, run_suite

_COMMANDS = ("envelope", "leakage", "posterior", "verify", "search")
_RUN_FIELDS = ("command", "command_args", "output_path", "format", "seed")
_QUADRATURE_FIELDS = ("truncation_halfwidth", "panel_count", "abs_tol")
_MAX_GRID_POINTS = 10**6  # a lo:hi:step grid is counted before it is built
_ARG_FIELDS = {
    "envelope": ("deltas", "max_cells"),
    "search": ("deltas", "max_cells"),
    "leakage": ("interval", "union"),
    "posterior": ("y_grid",),
    "verify": ("suite",),
}


@dataclass(frozen=True)
class RunConfig:
    """Fully validated description of one CLI run."""

    prior: object
    sigma_n: float
    quadrature: QuadratureConfig = DEFAULT_CONFIG
    command: str | None = None
    command_args: dict = field(default_factory=dict)
    output_path: str | None = None
    format: str = "csv"
    seed: int = 0


# -- config parsing ----------------------------------------------------------


def _require(cond, message):
    if not cond:
        raise DomainError(message)


def parse_config(path):
    """Read and validate a JSON run configuration.

    The mechanism may sit under a "mechanism" key or flat at the top
    level (prior/sigma_n/quadrature). Unknown fields are rejected with
    their JSON-pointer path; defaults are truncation_halfwidth 10,
    panel_count 2048, format csv, seed 0.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            raw = fh.read()
    except FileNotFoundError:
        raise DomainError(f"config file not found: {path}") from None
    except OSError as exc:
        raise DomainError(f"cannot read config file {path}: {exc}") from exc
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise DomainError(
            f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    if isinstance(obj, dict) and "mechanism" in obj:
        check_fields(obj, "", ("mechanism",), _RUN_FIELDS)
        pointer = "/mechanism"
        mech = check_fields(obj["mechanism"], pointer, ("prior", "sigma_n"), ("quadrature",))
    else:
        pointer = ""
        mech = check_fields(obj, "", ("prior", "sigma_n"), ("quadrature",) + _RUN_FIELDS)
    prior = prior_from_json(mech["prior"], f"{pointer}/prior")
    sigma_n = check_number(mech["sigma_n"], f"{pointer}/sigma_n", positive=True)
    quad = check_fields(mech.get("quadrature", {}), f"{pointer}/quadrature", (), _QUADRATURE_FIELDS)
    try:
        quadrature = QuadratureConfig(**quad)
    except DomainError as exc:
        raise DomainError(f"{pointer}/quadrature: {exc}") from exc

    command = obj.get("command")
    if command is not None:
        _require(
            command in _COMMANDS,
            f"/command: must be one of {', '.join(_COMMANDS)}; got {command!r}",
        )
    args = obj.get("command_args", {})
    _require(isinstance(args, dict), "/command_args: expected an object")
    output_path = obj.get("output_path")
    if output_path is not None:
        _require(isinstance(output_path, str) and output_path, "/output_path: expected a non-empty string")
    fmt = obj.get("format", RunConfig.format)
    _require(fmt in ("csv", "json"), f"/format: must be csv or json; got {fmt!r}")
    seed = check_count(obj.get("seed", RunConfig.seed), "/seed", lo=0)
    return RunConfig(
        prior=prior,
        sigma_n=sigma_n,
        quadrature=quadrature,
        command=command,
        command_args=dict(args),
        output_path=output_path,
        format=fmt,
        seed=seed,
    )


# -- flag parsing ------------------------------------------------------------


def _parse_grid(spec, name):
    """Accept "lo:hi:step" or a comma list of numbers."""
    spec = spec.strip()
    if ":" in spec:
        parts = spec.split(":")
        _require(len(parts) == 3, f"--{name}: expected lo:hi:step, got {spec!r}")
        try:
            lo, hi, step = (float(p) for p in parts)
        except ValueError:
            raise DomainError(f"--{name}: non-numeric component in {spec!r}") from None
        _require(step > 0.0, f"--{name}: step must be positive")
        _require(hi >= lo, f"--{name}: needs hi >= lo")
        steps = (hi - lo) / step + 1e-9  # NaN or inf fails the cap too
        _require(steps < _MAX_GRID_POINTS, f"--{name}: more than {_MAX_GRID_POINTS} points")
        return [lo + k * step for k in range(int(steps) + 1)]
    try:
        values = [float(p) for p in spec.split(",") if p.strip()]
    except ValueError:
        raise DomainError(f"--{name}: non-numeric entry in {spec!r}") from None
    _require(bool(values), f"--{name}: empty grid")
    return values


def _parse_interval_flag(spec):
    parts = spec.split(",")
    _require(len(parts) == 2, f"--interval: expected lo,hi; got {spec!r}")
    try:
        return [float(p) for p in parts]  # float() reads every spelling of inf
    except ValueError:
        raise DomainError(f"--interval: bad endpoint in {spec!r}") from None


def _endpoint_pair(pair, pointer):
    _require(
        isinstance(pair, (list, tuple)) and len(pair) == 2, f"{pointer}: expected [lo, hi]"
    )
    lo = decode_endpoint(pair[0], f"{pointer}/0")
    hi = decode_endpoint(pair[1], f"{pointer}/1")
    _require(lo < hi, f"{pointer}: needs lo < hi")
    return [lo, hi]


def _validate_args(command, args):
    """Per-command validation of command_args, before any computation."""
    check_fields(args, "/command_args", (), _ARG_FIELDS[command])

    if command in ("envelope", "search"):
        _require("deltas" in args, "/command_args/deltas: missing (or pass --deltas)")
        deltas = args["deltas"]
        _require(
            isinstance(deltas, (list, tuple)) and deltas,
            "/command_args/deltas: expected a non-empty list",
        )
        args["deltas"] = [check_probability(d, f"/command_args/deltas/{i}") for i, d in enumerate(deltas)]
        args["max_cells"] = check_count(args.get("max_cells", 4), "/command_args/max_cells", hi=6)
    elif command == "leakage":
        has_iv, has_un = "interval" in args, "union" in args
        _require(
            has_iv != has_un,
            "/command_args: leakage needs exactly one of interval or union",
        )
        if has_iv:
            args["interval"] = _endpoint_pair(args["interval"], "/command_args/interval")
        else:
            un = args["union"]
            _require(
                isinstance(un, (list, tuple)) and un,
                "/command_args/union: expected a non-empty list of [lo, hi] pairs",
            )
            args["union"] = [_endpoint_pair(p, f"/command_args/union/{i}") for i, p in enumerate(un)]
    elif command == "posterior":
        _require("y_grid" in args, "/command_args/y_grid: missing (or pass --y-grid)")
        ys = args["y_grid"]
        _require(
            isinstance(ys, (list, tuple)) and ys,
            "/command_args/y_grid: expected a non-empty list",
        )
        args["y_grid"] = [check_number(y, f"/command_args/y_grid/{i}") for i, y in enumerate(ys)]
    elif command == "verify":
        suite = args.get("suite", "all")
        _require(isinstance(suite, str) and suite, "/command_args/suite: expected a string")
        try:
            _suite_names(suite)
        except DomainError as exc:
            raise DomainError(f"/command_args/suite: {exc}") from exc
        args["suite"] = suite
    return args


def _resolve(ns):
    """Merge config file and flags into a validated RunConfig."""
    rc = parse_config(ns.config) if ns.config is not None else RunConfig(GaussianPrior(1.0), 1.0)
    command = ns.command or rc.command
    _require(command is not None, "no command: give a subcommand or a config 'command' field")

    # config command_args belong to the config's own command; drop them
    # when the subcommand overrides it
    args = dict(rc.command_args) if rc.command in (None, command) else {}
    if ns.deltas is not None:
        args["deltas"] = _parse_grid(ns.deltas, "deltas")
    if ns.interval is not None:
        args.pop("union", None)
        args["interval"] = _parse_interval_flag(ns.interval)
    if ns.y_grid is not None:
        args["y_grid"] = _parse_grid(ns.y_grid, "y-grid")
    if ns.suite is not None:
        args["suite"] = ns.suite
    if ns.max_cells is not None:
        args["max_cells"] = ns.max_cells
    args = _validate_args(command, args)

    return replace(
        rc,
        command=command,
        command_args=args,
        output_path=ns.out if ns.out is not None else rc.output_path,
        format=ns.format if ns.format is not None else rc.format,
        seed=check_count(ns.seed, "--seed", lo=0) if ns.seed is not None else rc.seed,
    )


# -- output rendering --------------------------------------------------------


def _fmt(x):
    """10 significant digits; scientific for |x| >= 1e6 or 0 < |x| < 1e-4."""
    x = float(x)
    a = abs(x)
    if a >= 1e6 or 0.0 < a < 1e-4:
        return f"{x:.9e}"
    return f"{x:.10g}"


def _cell_value(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return _fmt(v)
    if isinstance(v, (dict, list, tuple)) or v is None:
        return json.dumps(v, separators=(",", ":"))
    return str(v)


def _render(records, fmt):
    """Records share their keys, in column order: the CSV header."""
    if fmt == "json":
        return json.dumps(records, indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(records[0])
    writer.writerows([_cell_value(v) for v in rec.values()] for rec in records)
    return buf.getvalue()


# -- command execution -------------------------------------------------------


def _run_envelope(m, rc):
    points = envelope_curve(m, rc.command_args["deltas"], max_cells=rc.command_args["max_cells"])
    records = [
        {
            "delta": p.delta,
            "epsilon_d_nats": float(p.epsilon_d),
            "regime": p.regime,
            "witness_json": partition_to_json(p.witness),
        }
        for p in points
    ]
    return _render(records, rc.format), True


def _run_search(m, rc):
    records = []
    for d in rc.command_args["deltas"]:
        value, witness = envelope_bruteforce_lower_bound(m, d, rc.command_args["max_cells"])
        records.append(
            {
                "delta": d,
                "max_cells": rc.command_args["max_cells"],
                "epsilon_lb_nats": float(value),
                "witness_json": partition_to_json(witness),
            }
        )
    return _render(records, rc.format), True


def _run_leakage(m, rc):
    args = rc.command_args
    if "interval" in args:
        cells = [Interval(*args["interval"])]
        leak = interval_leakage(m, cells[0])
    else:
        cells = [Interval(lo, hi) for lo, hi in args["union"]]
        leak = set_leakage_oracle(m, cells)
    event = [{"lo": encode_endpoint(c.lo), "hi": encode_endpoint(c.hi)} for c in cells]
    records = [
        {
            "event_json": event,
            "mass": float(event_mass(m, cells)),
            "leakage_nats": float(leak),
        }
    ]
    return _render(records, rc.format), True


def _run_posterior(m, rc):
    ys = np.asarray(rc.command_args["y_grid"], dtype=float)
    means = m.posterior_mean(ys)
    variances = m.posterior_variance(ys)
    records = [
        {
            "y": float(y),
            "posterior_mean": float(mu),
            "posterior_variance": float(v),
        }
        for y, mu, v in zip(ys, means, variances)
    ]
    return _render(records, rc.format), True


def _run_verify(m, rc):
    results = run_suite(m, suite=rc.command_args.get("suite", "all"), seed=rc.seed)
    records = [
        {
            "name": r.name,
            "passed": r.passed,
            "worst_violation": encode_endpoint(r.worst_violation),  # inf as "inf", valid JSON
            "location": list(r.location) if isinstance(r.location, tuple) else r.location,
            "tolerance": r.tolerance,
            "details": r.details,
        }
        for r in results
    ]
    return _render(records, rc.format), all(r.passed for r in results)


_RUNNERS = {
    "envelope": _run_envelope,
    "search": _run_search,
    "leakage": _run_leakage,
    "posterior": _run_posterior,
    "verify": _run_verify,
}


def run(rc):
    """Execute a validated RunConfig; returns (output text, success)."""
    _validate_args(rc.command, dict(rc.command_args))
    m = Mechanism(rc.prior, rc.sigma_n, rc.quadrature)
    return _RUNNERS[rc.command](m, rc)


def _write_atomic(path, text):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".pml-tmp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


# -- entry point -------------------------------------------------------------


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="pml",
        description=(
            "Pointwise maximal leakage for the additive Gaussian noise channel: "
            "envelope curves, event leakage, posterior statistics, verification "
            "checks, and brute-force witness search."
        ),
    )
    parser.add_argument("--config", help="JSON run configuration", default=None)
    parser.set_defaults(
        deltas=None, interval=None, y_grid=None, suite=None, max_cells=None,
        seed=None, out=None, format=None,
    )
    shared = argparse.ArgumentParser(add_help=False)
    # SUPPRESS: without it the subcommand's unset --config would overwrite
    # a --config given before the subcommand
    shared.add_argument("--config", help="JSON run configuration", default=argparse.SUPPRESS)
    shared.add_argument("--seed", type=int, default=None, help="seed for randomized checks")
    shared.add_argument("--out", default=None, help="output file (default: stdout)")
    shared.add_argument("--format", choices=("csv", "json"), default=None)
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("envelope", parents=[shared], help="deterministic-leakage envelope over a delta grid")
    p.add_argument("--deltas", default=None, help="delta grid: lo:hi:step or comma list")
    p.add_argument("--max-cells", dest="max_cells", type=int, default=None, help="fallback search budget per side")

    p = sub.add_parser("search", parents=[shared], help="brute-force lower-bound witness search")
    p.add_argument("--deltas", default=None, help="delta grid: lo:hi:step or comma list")
    p.add_argument("--max-cells", dest="max_cells", type=int, default=None, help="interval budget")

    p = sub.add_parser("leakage", parents=[shared], help="leakage of an interval or finite union")
    p.add_argument("--interval", default=None, help="event endpoints lo,hi (-inf/inf allowed)")

    p = sub.add_parser("posterior", parents=[shared], help="posterior mean and variance table")
    p.add_argument("--y-grid", dest="y_grid", default=None, help="observation grid: lo:hi:step or comma list")

    p = sub.add_parser("verify", parents=[shared], help="run numerical verification checks")
    p.add_argument("--suite", default=None, help='"all" or a comma list of check names')
    return parser


_VALUE_FLAGS = ("--deltas", "--interval", "--y-grid")


def _fuse_leading_dash_values(argv):
    """Turn ["--y-grid", "-4:4:0.5"] into ["--y-grid=-4:4:0.5"].

    argparse otherwise mistakes grid values with a leading minus for
    option strings.
    """
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else None
        if (
            tok in _VALUE_FLAGS
            and nxt is not None
            and nxt.startswith("-")
            and not nxt.startswith("--")
            and len(nxt) > 1
        ):
            out.append(f"{tok}={nxt}")
            i += 2
            continue
        out.append(tok)
        i += 1
    return out


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    ns = _build_parser().parse_args(_fuse_leading_dash_values(list(argv)))
    try:
        rc = _resolve(ns)
        text, ok = run(rc)
        if rc.output_path is not None:
            _write_atomic(rc.output_path, text)
        else:
            sys.stdout.write(text)
    except NumericalError as exc:
        op = exc.operation or "computation"
        print(f"pml: numerical failure in {op}: {exc}", file=sys.stderr)
        return 3
    except (DomainError, ModelError) as exc:
        print(f"pml: config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"pml: cannot write output: {exc}", file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
