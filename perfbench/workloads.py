"""The three workloads: their inputs, set-up, operations and checks.

Each workload is a closed loop with one client: `round(k, rng)` returns
the operations of round k, drawn from the seeded `random.Random`, and
the loop in run.py executes them one after another. Only stdlib is
imported at module level, so that set-up time includes the whole import
of gausspml and numpy.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys
import time

import spans

MECHANISMS = {
    "canonical": {"prior": {"type": "gaussian", "sigma_x": 1.0}, "sigma_n": 1.0},
    "wide": {"prior": {"type": "gaussian", "sigma_x": 2.0}, "sigma_n": 1.0},
    "slc": {"prior": {"type": "slc", "beta": 1.0, "c": 1.0, "p": 4.0}, "sigma_n": 1.0},
    "mixture": {
        "prior": {"type": "mixture", "weights": [0.5, 0.5], "means": [-2.0, 2.0],
                  "sigmas": [1.0, 1.0]},
        "sigma_n": 1.0,
    },
}

# Delta range of the sweeps. The oscillating grid only takes search calls
# with delta >= 0.15: below that the search raises DomainError on some
# max_cells, because its cuts come from a clamped table (see CHANGES.md).
DELTA_LO, DELTA_HI = 1e-4, 0.45
OSC_DELTA_LO = 0.15


def _strata(rng, n, lo, hi):
    """n values log-uniform in [lo, hi], one in each of n equal log-strata, shuffled."""
    a, b = math.log(lo), math.log(hi)
    step = (b - a) / n
    return _shuffled(rng, [math.exp(a + step * (i + rng.random())) for i in range(n)])


def _shuffled(rng, values):
    rng.shuffle(values)
    return values


def _oscillating(gp, np):
    """The tabulated fixture: oscillating log-density, sigma_n = 0.05."""
    xs = np.linspace(-6.0, 6.0, 2001)
    prior = gp.GridPrior(tuple(xs), tuple(-0.1 * xs**2 + 2.0 * np.sin(4.0 * xs)))
    cfg = gp.QuadratureConfig(truncation_halfwidth=10.0, panel_count=16384, abs_tol=1e-8)
    return gp.Mechanism(prior, 0.05, cfg, y_grid=np.linspace(-5.0, 5.0, 4096))


def build(gp, np, name):
    if name == "oscillating":
        return _oscillating(gp, np)
    spec = MECHANISMS[name]
    return gp.Mechanism(gp.prior_from_json(spec["prior"]), spec["sigma_n"])


def oracle(name):
    """The independent reference for one named mechanism."""
    import numpy as np

    import checks

    if name == "oscillating":
        xs = np.linspace(-6.0, 6.0, 2001)
        return checks.grid_oracle(xs, -0.1 * xs**2 + 2.0 * np.sin(4.0 * xs), 0.05)
    spec = MECHANISMS[name]
    prior, sn = spec["prior"], spec["sigma_n"]
    if prior["type"] == "gaussian":
        return checks.MixtureOracle([1.0], [0.0], [prior["sigma_x"]], sn)
    if prior["type"] == "mixture":
        return checks.MixtureOracle(prior["weights"], prior["means"], prior["sigmas"], sn)
    return checks.slc_oracle(prior["beta"], prior["c"], prior["p"], sn)


def _cells(partition):
    return [(c.lo, c.hi, label) for c, label in zip(partition.cells, partition.labels)]


def _num(v):
    """A JSON endpoint: a number, "-inf" or "inf"."""
    return {"-inf": -math.inf, "inf": math.inf}[v] if isinstance(v, str) else v


def _json_cells(witness):
    return [(_num(c["lo"]), _num(c["hi"]), c["label"]) for c in witness["cells"]]


# closed forms hold and the search must find log(2/delta) on these
TWO_TAIL_EXACT = ("canonical", "slc")


def _check_point(checker, ref, name, max_cells, delta, value, regime, cells, where):
    """One envelope point, from envelope_curve or `pml envelope`."""
    if name == "canonical":
        checker.expect(regime == "ClosedForm", f"{where}: regime {regime}")
    if regime == "ClosedForm":
        checker.closed_form(ref, delta, value, cells, where)
    else:
        checker.search(ref, delta, max_cells, value, cells, where, name in TWO_TAIL_EXACT)


# One BLAS thread. With the default pool (one thread per vCPU) the large
# matrix-vector products of construction, curves and oscillating searches
# took twice as long while one other process ran on the 2-vCPU machine,
# and were no faster when none did.
ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1"}


class _Warm:
    """Shared part of the two in-process workloads."""

    construct_scope = "setup"
    names = ()
    env = ONE_BLAS_THREAD

    def __init__(self, root):
        self.mechs = {}

    def setup(self, recorder=None):
        import numpy as np

        import gausspml

        self.gp = gausspml
        if recorder is None:
            self.mechs = {n: build(gausspml, np, n) for n in self.names}
            return
        recorder.install()
        with recorder.span(spans.SETUP):
            self.mechs = {n: build(gausspml, np, n) for n in self.names}
        recorder.uninstall()

    def spot_check(self, checker, rng, oracles):
        """Marginal CDF and posterior of every mechanism against its oracle."""
        for name, m in self.mechs.items():
            ref = oracles[name]
            span = 4.0 if name == "oscillating" else 5.0
            for _ in range(4):
                y = rng.uniform(-span, span)
                checker.cdf(ref, y, m.marginal_cdf(y), f"{name} cdf")
                checker.posterior(ref, y, m.posterior_mean(y), m.posterior_variance(y),
                                  f"{name} posterior")


class EnvelopeSweep(_Warm):
    """Warm library calls: envelope curves and brute-force searches."""

    names = ("canonical", "wide", "slc", "mixture", "oscillating")

    def round(self, k, rng):
        # deltas are stratified and max_cells balanced inside each round
        # (curves and oscillating searches rotate it with k), so every round
        # carries about the same work and rounds differ only in detail
        four = ("canonical", "wide", "slc", "mixture")
        deltas = _strata(rng, 12, DELTA_LO, DELTA_HI)
        cells = _shuffled(rng, list(range(1, 7)) * 2)
        ops = [("search", name, d, c) for name, d, c in zip(four * 3, deltas, cells)]
        for j, name in enumerate(four):
            ops.append(("curve", name, sorted(_strata(rng, 4, DELTA_LO, DELTA_HI)),
                        (k + j) % 6 + 1))
        mid = 0.5 * (OSC_DELTA_LO + DELTA_HI)
        ops.append(("search", "oscillating", rng.uniform(OSC_DELTA_LO, mid), k % 3 + 1))
        ops.append(("search", "oscillating", rng.uniform(mid, DELTA_HI), k % 3 + 4))
        rng.shuffle(ops)
        return ops

    def execute(self, op):
        kind, name, arg, max_cells = op
        m = self.mechs[name]
        if kind == "search":
            return self.gp.envelope_bruteforce_lower_bound(m, arg, max_cells)
        return self.gp.envelope_curve(m, arg, max_cells=max_cells)

    def check(self, checker, op, result, oracles):
        kind, name, arg, max_cells = op
        ref = oracles[name]
        where = f"{kind} {name} max_cells={max_cells}"
        if kind == "search":
            value, part = result
            checker.search(ref, arg, max_cells, float(value), _cells(part),
                           f"{where} delta={arg!r}", name in TWO_TAIL_EXACT)
            return False
        for p in result:
            _check_point(checker, ref, name, max_cells, p.delta, float(p.epsilon_d), p.regime,
                         _cells(p.witness), f"{where} delta={p.delta!r}")
        return False


SUITE = ("concavity_identity", "interval_monotonicity", "tail_worst_bound",
         "bathtub_optimality", "brascamp_lieb_bound")
# run_suite fails this check on the mixture for every seed: the violation
# is roundoff at the window edge (see CHANGES.md). It is kept as a
# counted failure; any other failing check is an error.
KNOWN_FAILURE = ("mixture", "interval_monotonicity")


class VerifySuite(_Warm):
    """Warm `run_suite(m, "all", seed)` calls, one thread."""

    names = ("canonical", "slc", "mixture")
    # the default BLAS pool: the mixture's counted failure is roundoff that
    # follows its summation order, and one BLAS thread hides it
    env = {}

    def round(self, k, rng):
        # the mixture's suite seed is the round index, not drawn from the
        # benchmark seed, so its counted failure has seed-free inputs
        return [("suite", "canonical", rng.randrange(2**31)),
                ("suite", "slc", rng.randrange(2**31)),
                ("suite", "mixture", k)]

    def execute(self, op):
        results = self.gp.run_suite(self.mechs[op[1]], "all", op[2])
        return [(r.name, r.passed, r.worst_violation, r.tolerance) for r in results]

    def check(self, checker, op, result, oracles):
        _, name, seed = op
        where = f"run_suite {name} seed={seed}"
        checker.expect(tuple(r[0] for r in result) == SUITE, f"{where}: checks {result}")
        failed = False
        for check, passed, worst, tol in result:
            checker.expect(passed == (worst <= tol),
                           f"{where}: {check} passed={passed} but violation {worst!r} vs {tol!r}")
            if not passed:
                failed = True
                checker.expect((name, check) == KNOWN_FAILURE,
                               f"{where}: {check} failed with violation {worst!r}")
        return failed


class CliCold:
    """Sequential cold `python -m gausspml.cli` processes."""

    construct_scope = "op"
    env = ONE_BLAS_THREAD
    commands = ("envelope", "search", "leakage", "posterior")
    names = ("canonical", "slc", "mixture")
    warmups = 3

    def __init__(self, root):
        self.root = root
        self.outdir = os.path.join(root, ".perfbench_out", "cli-cold")
        self.env = dict(os.environ, PYTHONPATH="src")
        self.argv = [sys.executable, "-m", "gausspml.cli"]
        self.configs = {}
        self.first_stdout = {}
        self.records = None  # spans of the traced processes, once tracing

    def trace(self, span_file):
        """Run later operations through cli_traced.py and keep their spans."""
        here = os.path.dirname(os.path.abspath(__file__))
        self.argv = [sys.executable, os.path.join(here, "cli_traced.py")]
        self.env = dict(self.env, PERFBENCH_SPANS=span_file)
        self.records = []

    def prepare(self, rng):
        """Write one seeded JSON config per (command, mechanism)."""
        os.makedirs(self.outdir, exist_ok=True)
        for cmd in self.commands:
            for name in self.names:
                args = self._args(cmd, rng)
                cfg = {"mechanism": MECHANISMS[name], "command": cmd,
                       "command_args": args, "format": "json"}
                path = os.path.join(self.outdir, f"{cmd}-{name}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(cfg, fh)
                self.configs[(cmd, name)] = (path, args)

    @staticmethod
    def _args(cmd, rng):
        if cmd == "envelope":
            return {"deltas": sorted(_strata(rng, 3, DELTA_LO, DELTA_HI)),
                    "max_cells": rng.randint(1, 6)}
        if cmd == "search":
            return {"deltas": sorted(_strata(rng, 2, DELTA_LO, DELTA_HI)),
                    "max_cells": rng.randint(1, 6)}
        if cmd == "leakage":
            lo = rng.uniform(-4.0, 3.0)
            hi = lo + rng.uniform(0.1, 4.0)
            tail = rng.random()
            if tail < 0.25:
                lo = "-inf"
            elif tail < 0.5:
                hi = "inf"
            return {"interval": [lo, hi]}
        return {"y_grid": sorted(rng.uniform(-6.0, 6.0) for _ in range(8))}

    def setup(self):
        """Warm-up processes on one config; returns their median wall time."""
        times = []
        for _ in range(self.warmups):
            t0 = time.perf_counter()
            self.execute(("posterior", "canonical"))
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    def round(self, k, rng):
        # all 12 (command, mechanism) pairs, so every run has the same mix
        n = len(self.names)
        return [op for j in range(n) for op in (
            ("envelope", self.names[j]), ("search", self.names[(j + 1) % n]),
            ("leakage", self.names[(j + 2) % n]), ("posterior", self.names[j]))]

    def execute(self, op):
        proc = subprocess.run(self.argv + ["--config", self.configs[op][0]], cwd=self.root,
                              env=self.env, capture_output=True, timeout=170)
        if self.records is not None:
            spans.append_file(self.records, self.env["PERFBENCH_SPANS"])
        if proc.returncode == 0 and op not in self.first_stdout:
            self.first_stdout[op] = proc.stdout
        return proc.returncode, proc.stdout, proc.stderr

    def check(self, checker, op, result, oracles):
        code, stdout, stderr = result
        cmd, name = op
        where = f"pml {cmd} {name}"
        if code != 0:
            sys.stderr.write(f"{where}: exit {code}\n{stderr.decode(errors='replace')}\n")
            return True
        checker.expect(stdout == self.first_stdout[op], f"{where}: stdout differs between runs")
        records = json.loads(stdout)
        args = self.configs[op][1]
        ref = oracles[name]
        if cmd == "envelope":
            for rec in records:
                _check_point(checker, ref, name, args["max_cells"], rec["delta"],
                             rec["epsilon_d_nats"], rec["regime"],
                             _json_cells(rec["witness_json"]), f"{where} delta={rec['delta']!r}")
        elif cmd == "search":
            for rec in records:
                checker.search(ref, rec["delta"], rec["max_cells"], rec["epsilon_lb_nats"],
                               _json_cells(rec["witness_json"]),
                               f"{where} delta={rec['delta']!r}", name in TWO_TAIL_EXACT)
        elif cmd == "leakage":
            (rec,) = records
            (event,) = rec["event_json"]
            checker.interval(ref, _num(event["lo"]), _num(event["hi"]), rec["mass"],
                             rec["leakage_nats"], where)
        else:
            checker.expect(len(records) == len(args["y_grid"]), f"{where}: row count")
            for rec in records:
                checker.posterior(ref, rec["y"], rec["posterior_mean"],
                                  rec["posterior_variance"], where)
        return False


WORKLOADS = {
    "cli-cold": CliCold,
    "envelope-sweep": EnvelopeSweep,
    "verify-suite": VerifySuite,
}
