"""Per-layer measurements for the traced run.

Every measurement is a root span ``suite.<item>`` whose children are the
calls into one package module, so the span dump shows the layer split of
each figure.  Inputs are drawn from the workload generators with the run's
seed; caches are warm unless a metric says "cold".  ``PER_LAYER`` lists
every metric with its unit and direction, in the order BENCHMARK.json
lists them; README.md maps each one to the end-to-end metric and workload
it should move.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

import numpy as np
from click.testing import CliRunner

import majorana as mj
from majorana import serialize
from majorana.cli import main as cli_main
from majorana.dynamics import evolve, evolve_exact, hamiltonian, star_velocities
from majorana.kings import SearchConfig, minimize, objective
from majorana.multipoles import multipoles, q_grid
from majorana.rootfinding import find_roots, find_roots_batch

import checks
import workloads as wl

DYN_CLASSES = ("generic", "kerr", "pole", "highspin")
CLI_CALLS = ("stars", "stars_angles", "state", "qgrid", "multipoles", "kings", "evolve")
KING_LABELS = tuple(f"twoS{n}_M{M}" for n, M in wl.Kings.CONFIGS)

PER_LAYER = (
    [(f"rootfinding.find_roots_batch.us_per_poly.deg{d}", "us", "lower") for d in (5, 10, 20, 40)]
    + [(f"rootfinding.find_roots_batch.us_per_poly.hard_deg{d}", "us", "lower") for d in (20, 40)]
    + [(f"rootfinding.find_roots.us.deg{d}", "us", "lower") for d in (4, 10, 20)]
    + [("stellar.constellations_from_states.us_per_state", "us", "lower")]
    + [(f"stellar.state_from_constellation.us.twoS{n}", "us", "lower") for n in (10, 40)]
    + [(f"stellar.constellation_from_state.us.twoS{n}", "us", "lower") for n in (4, 20)]
    + [(f"multipoles.multipoles.us.twoS{n}", "us", "lower") for n in (6, 12, 20)]
    + [("multipoles.multipoles_cold_ms.twoS20", "ms", "lower"),
       ("multipoles.q_grid.ms.twoS20_64x128", "ms", "lower")]
    + [(f"kings.objective.us.twoS{n}", "us", "lower") for n in (6, 12, 20)]
    + [(f"kings.minimize.s.{k}", "s", "lower") for k in KING_LABELS]
    + [("kings.restart_success_ratio", "ratio", "higher"),
       ("kings.restarts_per_s", "1/s", "higher")]
    + [(f"dynamics.star_velocities.us.twoS{n}", "us", "lower") for n in (4, 8, 16)]
    + [(f"dynamics.hamiltonian.us.twoS{n}", "us", "lower") for n in (4, 16)]
    + [(f"dynamics.evolve_exact.us.twoS{n}", "us", "lower") for n in (4, 16)]
    + [(f"dynamics.evolve.ms.{c}", "ms", "lower") for c in DYN_CLASSES]
    + [("dynamics.evolve.snapshots_per_op", "count", "lower"),
       ("dynamics.evolve.bridge_windows_per_op", "count", "lower"),
       ("dynamics.evolve.bridged_snapshot_share", "ratio", "lower"),
       ("dynamics.evolve.us_per_snapshot", "us", "lower"),
       ("dynamics.evolve.timeouts", "count", "lower")]
    + [(f"serialize.{f}.us", "us", "lower") for f in ("parse_state", "emit_constellation")]
    + [(f"serialize.{f}.ms", "ms", "lower") for f in ("emit_multipoles", "emit_qgrid", "emit_trajectory")]
    + [("cli.interpreter_s", "s", "lower"), ("cli.import_s", "s", "lower")]
    + [(f"cli.inproc_ms.{c}", "ms", "lower") for c in CLI_CALLS]
    + [("trace.overhead_pct", "%", "lower")]
)

# Run in a fresh interpreter: import time, then the first multipole call at
# 2S = 20, which builds the tensor stack.
COLD_PROBE = (
    "import json, time\n"
    "t = time.perf_counter()\n"
    "import majorana\n"
    "t_import = time.perf_counter() - t\n"
    "from majorana.multipoles import multipoles\n"
    "st = majorana.SpinState(20, [1.0 + 0.5j * k for k in range(21)])\n"
    "t = time.perf_counter()\n"
    "multipoles(st)\n"
    "print(json.dumps({'import_s': t_import, 'cold_ms': 1e3 * (time.perf_counter() - t)}))\n"
)
CHILD_REPS = 3


class Suite:
    def __init__(self, tr, seed: int, src: str, workdir: str):
        self.tr = tr
        self.rng = np.random.default_rng([seed, 2 ** 33])
        self.src = src
        self.workdir = workdir
        self.failures: list[str] = []
        self.m: dict[str, float] = {}

    def timed(self, name: str, fn, *args, reps: int = 5, **kwargs) -> float:
        """Median seconds of reps calls, each a child span of the current root."""
        durations = []
        for _ in range(reps):
            with self.tr.span(name) as s:
                try:
                    fn(*args, **kwargs)
                except mj.MajoranaError as exc:
                    self.failures.append(f"{name}: {wl.error_text(exc)}")
            durations.append(s.seconds)
        return statistics.median(durations)

    def state(self, n: int) -> mj.SpinState:
        return mj.SpinState(n, wl.gaussian(self.rng, n + 1))

    def run(self) -> dict[str, float]:
        for part in (self.rootfinding, self.stellar, self.multipoles, self.kings,
                     self.dynamics, self.serialize, self.cli):
            with self.tr.span(f"suite.{part.__name__}"):
                part()
        return self.m

    def rootfinding(self):
        batch = 32
        for d in (5, 10, 20, 40):
            stack = np.array([checks.stellar_coefficients(a) for a in wl.gaussian(self.rng, batch, d + 1)])
            t = self.timed("rootfinding.find_roots_batch", find_roots_batch, stack, reps=3)
            self.m[f"rootfinding.find_roots_batch.us_per_poly.deg{d}"] = 1e6 * t / batch
        for d in (20, 40):
            rows = [checks.stellar_coefficients(wl.amplitudes_from_roots(r))
                    for r in wl.structured_roots(self.rng, d)]
            t = self.timed("rootfinding.find_roots_batch", find_roots_batch, np.array(rows), reps=3)
            self.m[f"rootfinding.find_roots_batch.us_per_poly.hard_deg{d}"] = 1e6 * t / len(rows)
        for d in (4, 10, 20):
            coeffs = checks.stellar_coefficients(wl.gaussian(self.rng, d + 1))
            self.m[f"rootfinding.find_roots.us.deg{d}"] = 1e6 * self.timed(
                "rootfinding.find_roots", find_roots, coeffs, reps=5)

    def stellar(self):
        items = wl.Roundtrip().inputs(self.rng)
        states = [mj.SpinState(n, a) for i in items if i["klass"] == "random" for n, a in i["states"]]
        t = self.timed("stellar.constellations_from_states", mj.constellations_from_states, states, reps=3)
        self.m["stellar.constellations_from_states.us_per_state"] = 1e6 * t / len(states)
        for n in (10, 40):
            c = mj.constellation_from_state(self.state(n))
            self.m[f"stellar.state_from_constellation.us.twoS{n}"] = 1e6 * self.timed(
                "stellar.state_from_constellation", mj.state_from_constellation, c, reps=20)
        for n in (4, 20):
            self.m[f"stellar.constellation_from_state.us.twoS{n}"] = 1e6 * self.timed(
                "stellar.constellation_from_state", mj.constellation_from_state, self.state(n), reps=10)

    def multipoles(self):
        for n in (6, 12, 20):
            self.m[f"multipoles.multipoles.us.twoS{n}"] = 1e6 * self.timed(
                "multipoles.multipoles", multipoles, self.state(n), reps=20)
        self.m["multipoles.q_grid.ms.twoS20_64x128"] = 1e3 * self.timed(
            "multipoles.q_grid", q_grid, self.state(20), 64, 128, reps=5)
        env = dict(os.environ, PYTHONPATH=self.src)
        probes = []
        for _ in range(CHILD_REPS):
            with self.tr.span("multipoles.cold_child"):
                out = subprocess.run([sys.executable, "-c", COLD_PROBE], env=env,
                                     capture_output=True, text=True, check=True, timeout=120)
            probes.append(json.loads(out.stdout))
        self.m["multipoles.multipoles_cold_ms.twoS20"] = statistics.median(p["cold_ms"] for p in probes)
        self.m["cli.import_s"] = statistics.median(p["import_s"] for p in probes)

    def kings(self):
        for n, M in ((6, 3), (12, 5), (20, 2)):
            c = mj.constellation_from_state(self.state(n))
            self.m[f"kings.objective.us.twoS{n}"] = 1e6 * self.timed(
                "kings.objective", objective, c, M, reps=20)
        restarts = converged = 0
        total = 0.0
        for (n, M), label in zip(wl.Kings.CONFIGS, KING_LABELS):
            config = SearchConfig(M=M, restarts=wl.Kings.RESTARTS, seed=int(self.rng.integers(2 ** 62)))
            with self.tr.span("kings.minimize") as s:
                result = minimize(n, config)
            self.m[f"kings.minimize.s.{label}"] = s.seconds
            restarts += config.restarts
            converged += result.restarts_converged
            total += s.seconds
        self.m["kings.restart_success_ratio"] = converged / restarts
        self.m["kings.restarts_per_s"] = restarts / total

    def dynamics(self):
        for n in (4, 8, 16):
            h = hamiltonian(n, wl.unit_hermitian(self.rng, n))
            c = mj.constellation_from_state(self.state(n))
            self.m[f"dynamics.star_velocities.us.twoS{n}"] = 1e6 * self.timed(
                "dynamics.star_velocities", star_velocities, c, h, reps=20)
        for n in (4, 16):
            matrix = wl.unit_hermitian(self.rng, n)
            self.m[f"dynamics.hamiltonian.us.twoS{n}"] = 1e6 * self.timed(
                "dynamics.hamiltonian", hamiltonian, n, matrix, reps=10)
            h = hamiltonian(n, matrix)
            self.m[f"dynamics.evolve_exact.us.twoS{n}"] = 1e6 * self.timed(
                "dynamics.evolve_exact", evolve_exact, self.state(n), h, 0.7, reps=20)
        dyn = wl.Dynamics()
        outcomes = [op(self.tr) for k in range(3) for op in dyn.ops(dyn.inputs(self.rng, k))]
        for c in DYN_CLASSES:
            self.m[f"dynamics.evolve.ms.{c}"] = 1e3 * statistics.median(
                o.seconds for o in outcomes if o.klass == c)
        done = [o for o in outcomes if o.counts]
        snaps = sum(o.counts["snapshots"] for o in done)
        self.m["dynamics.evolve.snapshots_per_op"] = snaps / max(1, len(done))
        self.m["dynamics.evolve.bridge_windows_per_op"] = (
            sum(o.counts["bridge_windows"] for o in done) / max(1, len(done)))
        self.m["dynamics.evolve.bridged_snapshot_share"] = (
            sum(o.counts["bridged_snapshots"] for o in done) / max(1, snaps))
        self.m["dynamics.evolve.us_per_snapshot"] = 1e6 * sum(o.seconds for o in done) / max(1, snaps)
        self.m["dynamics.evolve.timeouts"] = sum(o.timed_out for o in outcomes)
        self.failures.extend(f"dynamics.{o.klass}: {p}" for o in outcomes for p in o.problems)

    def serialize(self):
        st = self.state(20)
        text = serialize.emit_state(st)
        c = mj.constellation_from_state(st)
        spec = multipoles(st)
        grid = q_grid(st, 64, 128)
        traj = evolve(mj.SpinState(4, wl.amplitudes_from_roots(np.full(4, wl.gaussian(self.rng, 1)[0]))),
                      mj.builtin_hamiltonian(4, "Sz2", 0.7), 0.5)
        self.m["serialize.parse_state.us"] = 1e6 * self.timed(
            "serialize.parse_state", serialize.parse_state, text, reps=50)
        self.m["serialize.emit_constellation.us"] = 1e6 * self.timed(
            "serialize.emit_constellation", serialize.emit_constellation, c, reps=50)
        self.m["serialize.emit_multipoles.ms"] = 1e3 * self.timed(
            "serialize.emit_multipoles", serialize.emit_multipoles, spec, reps=10)
        self.m["serialize.emit_qgrid.ms"] = 1e3 * self.timed(
            "serialize.emit_qgrid", serialize.emit_qgrid, grid, reps=3)
        self.m["serialize.emit_trajectory.ms"] = 1e3 * self.timed(
            "serialize.emit_trajectory", serialize.emit_trajectory, traj, reps=3)

    def cli(self):
        self.m["cli.interpreter_s"] = self.timed(
            "cli.interpreter", subprocess.run, [sys.executable, "-c", "pass"], check=True,
            timeout=60, reps=CHILD_REPS)
        runner = CliRunner()
        calls = wl.Cli(self.src, self.workdir)
        for name, argv, expected in calls.commands(calls.inputs(self.rng)[0]):
            want = expected() + "\n"
            durations = []
            for _ in range(1 if name == "kings" else 3):
                with self.tr.span(f"cli.{name}") as s:
                    result = runner.invoke(cli_main, argv)
                durations.append(s.seconds)
                problems = checks.check_cli(result.exit_code, result.output.encode(), want.encode())
                self.failures.extend(f"cli.inproc.{name}: {p}" for p in problems)
            self.m[f"cli.inproc_ms.{name}"] = 1e3 * statistics.median(durations)
