"""The four workloads: seeded inputs and one runner per op.

Every workload is a closed loop with one client: ops run one after another
in this process (``cli`` starts one child interpreter per op and waits for
it).  Inputs for cycle k come from ``numpy.random.default_rng([seed, k])``,
so a seed fixes every input of a run.  Only public package functions are
called, and only those calls are inside an op's timer; building inputs and
checking outputs are not.

Each op belongs to a class.  A class is *in contract* when the package's
test suite already guarantees its outcome (random states at 2S <= 20 for
the round trip, 2S <= 8 generic and 2S = 4 Kerr dynamics, every CLI call).
A failure there makes the run incorrect.  The other classes are stress
inputs outside what the tests reach, and king searches with one restart
(the suite guarantees searches with 64); their failures are counted, never
filtered out.  README.md gives the reasons for each workload.
"""

from __future__ import annotations

import functools
import hashlib
import math
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import majorana as mj
from majorana import serialize
from majorana.dynamics import builtin_hamiltonian, evolve, hamiltonian
from majorana.kings import SearchConfig, minimize
from majorana.multipoles import multipoles, q_grid

import checks
from tracing import NullTracer

# Per-op wall limit of a dynamics op, by class: at least five times the
# slowest healthy op of the class on a 2-CPU Xeon (generic 0.07 s, Kerr
# 0.17 s, pole crossing 0.61 s, high-spin 0.09 s).  An integration that
# grinds (30-90 s unbounded) stops here and counts as failed at the limit.
DYNAMICS_LIMIT_S = {"generic": 0.5, "kerr": 1.0, "pole": 3.0, "highspin": 0.5}
# Per-op wall limit for one CLI child; a healthy call takes about 1 s.
CLI_LIMIT_S = 60.0


@dataclass
class Outcome:
    klass: str
    seconds: float
    units: int = 1
    failed: int = 0
    contract_failed: int = 0
    timed_out: bool = False
    problems: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)


class OpTimeout(Exception):
    """Raised by SIGALRM inside an op that exceeded its wall limit."""


def _alarm(signum, frame):
    raise OpTimeout()


def run_limited(seconds: float, fn, *args, **kwargs):
    """fn(*args) under a SIGALRM wall limit on this process only."""
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn(*args, **kwargs)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def digest(inputs) -> str:
    """sha256 over the arrays and parameters of one cycle's inputs."""
    h = hashlib.sha256()

    def feed(value) -> None:
        if isinstance(value, dict):
            for key in sorted(value):
                h.update(key.encode())
                feed(value[key])
        elif isinstance(value, (list, tuple)):
            for v in value:
                feed(v)
        elif isinstance(value, np.ndarray):
            h.update(np.ascontiguousarray(value).tobytes())
        else:
            h.update(repr(value).encode())

    feed(inputs)
    return h.hexdigest()


# -- input helpers --------------------------------------------------------------


def gaussian(rng, *shape) -> np.ndarray:
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def amplitudes_from_roots(roots: np.ndarray) -> np.ndarray:
    """Amplitudes (m = -S..S) of the state whose stars are the given finite
    roots; Vieta by numpy, independent of the package."""
    n = len(roots)
    coeffs = np.poly(roots)[::-1]  # low to high, monic
    binom = np.array([math.sqrt(math.comb(n, k)) for k in range(n + 1)])
    amps = coeffs / binom
    return amps / np.abs(amps).max()


def unit_hermitian(rng, n: int) -> np.ndarray:
    g = gaussian(rng, n + 1, n + 1)
    m = (g + g.conj().T) / 2.0
    return m / np.abs(np.linalg.eigvalsh(m)).max()


def structured_roots(rng, n: int) -> list[np.ndarray]:
    """Coherent (one n-fold star), one double star, one star near the
    pole (|z| ~ 1e6), and stars spread over |z| in [e^-7, e^7]."""
    w = gaussian(rng, 1)[0]
    coherent = np.full(n, w)
    double = np.concatenate([gaussian(rng, n - 2), [w, w]]) if n >= 2 else coherent
    far = 1e6 * rng.uniform(0.5, 2.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    near_pole = np.concatenate([gaussian(rng, n - 1), [far]])
    spread = np.exp(rng.uniform(-7.0, 7.0, n) + 1j * rng.uniform(0, 2 * np.pi, n))
    return [coherent, double, near_pole, spread]


class Workload:
    """inputs(rng, k) builds cycle k; ops(items) yields one callable
    op(tracer) -> Outcome per op; warm_up(rng) fills the package's caches.

    A run makes PASSES passes over the same ops; an op reports the median
    of its host-scaled times over them, so a burst from a neighbour on a
    shared host that slows one pass does not move it.  CYCLE_S is the wall
    time of one cycle on a 2-CPU Xeon; a run holds as many cycles as fill
    its --seconds with PASSES passes at that speed."""

    unit = "op"
    PASSES = 4

    def ops(self, items):
        return (functools.partial(self.run, item) for item in items)


# -- roundtrip -----------------------------------------------------------------------


class Roundtrip(Workload):
    """Op: one batch of states through constellations_from_states and each
    result back through state_from_constellation."""

    unit = "state"
    CYCLE_S = 0.45
    SIZES = (2, 5, 10, 20, 30, 40)
    RANDOM_BATCHES = 3
    RANDOM_PER_SIZE = 6
    CONTRACT_MAX = 20

    def inputs(self, rng, k: int = 0) -> list[dict]:
        """One cycle: three batches of random states, every size mixed in
        each, then one batch of the four structured states at every size.
        Three batches in four are alike, so the median op is steady."""
        out = [
            {"klass": "random", "states": [
                (n, a) for n in self.SIZES for a in gaussian(rng, self.RANDOM_PER_SIZE, n + 1)]}
            for _ in range(self.RANDOM_BATCHES)
        ]
        out.append({"klass": "structured", "states": [
            (n, amplitudes_from_roots(r)) for n in self.SIZES for r in structured_roots(rng, n)]})
        return out

    def warm_up(self, rng) -> None:
        for item in self.inputs(rng):
            try:
                self._roundtrip(item, NullTracer())
            except mj.MajoranaError:
                pass

    @staticmethod
    def _roundtrip(item, tr):
        states = [mj.SpinState(n, a) for n, a in item["states"]]
        with tr.span("op.roundtrip"):
            cons = tr.call("stellar.constellations_from_states", mj.constellations_from_states, states)
            backs = [tr.call("stellar.state_from_constellation", mj.state_from_constellation, c) for c in cons]
        return states, cons, backs

    def run(self, item, tr) -> Outcome:
        klass = item["klass"]
        contract = [klass == "random" and n <= self.CONTRACT_MAX for n, _ in item["states"]]
        units = len(contract)
        t0 = time.perf_counter()
        try:
            states, cons, backs = self._roundtrip(item, tr)
        except Exception as exc:  # a raising batch fails every state in it
            return Outcome(klass, time.perf_counter() - t0, units, units, sum(contract),
                           problems=[error_text(exc)])
        seconds = time.perf_counter() - t0
        found = [checks.check_roundtrip(st, c, back) for st, c, back in zip(states, cons, backs)]
        return Outcome(
            klass, seconds, units,
            failed=sum(1 for f in found if f),
            contract_failed=sum(1 for f, c in zip(found, contract) if f and c),
            problems=[f"2S={st.label.twoS}: {p}" for st, f in zip(states, found) for p in f],
        )


# -- kings ----------------------------------------------------------------------------


class Kings(Workload):
    """Op: one minimize call at a configuration with known zeros.

    One restart per search keeps a cycle to a few seconds, so a run holds
    several cycles: each configuration gets a few independent restarts per
    run and the mix of configurations stays whole."""

    unit = "search"
    CYCLE_S = 3.4
    # A search's time depends on its random start more than on the host's
    # state, so a run spends its time on distinct searches, not on passes.
    PASSES = 1
    CONFIGS = ((4, 2), (6, 3), (10, 3), (12, 5), (20, 2))
    # Searches per cycle at each configuration.  (10, 3) is the middle one
    # by search time and runs twice, so the median op falls inside its
    # cluster of times rather than where its cluster meets the next one;
    # at equal run time that cuts the seed-to-seed spread of op_ms_p50 by
    # a third.
    PER_CYCLE = (1, 1, 2, 1, 1)
    RESTARTS = 1

    def inputs(self, rng, k: int = 0) -> list[dict]:
        return [
            {"twoS": n, "M": M, "seed": int(rng.integers(2 ** 62))}
            for (n, M), count in zip(self.CONFIGS, self.PER_CYCLE)
            for _ in range(count)
        ]

    def warm_up(self, rng) -> None:
        for n, M in self.CONFIGS:
            st = mj.SpinState(n, gaussian(rng, n + 1))
            mj.objective(mj.constellation_from_state(st), M)

    def run(self, item, tr) -> Outcome:
        n, M = item["twoS"], item["M"]
        klass = f"twoS{n}_M{M}"
        config = SearchConfig(M=M, restarts=self.RESTARTS, seed=item["seed"])
        t0 = time.perf_counter()
        try:
            with tr.span("op.kings"):
                result = tr.call("kings.minimize", minimize, n, config)
        except Exception as exc:
            return Outcome(klass, time.perf_counter() - t0, 1, 1, problems=[error_text(exc)])
        seconds = time.perf_counter() - t0
        problems = checks.check_king(result, M)
        return Outcome(klass, seconds, 1, int(bool(problems)), problems=problems)


# -- dynamics -------------------------------------------------------------------------


class Dynamics(Workload):
    """Op: one evolve call with ten checkpoints."""

    unit = "trajectory"
    CYCLE_S = 1.3
    GENERIC = (2, 3, 4, 5, 6, 8, 10)
    KERR = (4, 10)
    POLE = (3, 6, 10)
    HIGHSPIN = (12, 16, 20)

    def inputs(self, rng, k: int = 0) -> list[dict]:
        """One cycle: every generic and Kerr size, and one pole-crossing and
        one high-spin op whose sizes rotate with the cycle index k."""
        out = []
        for n in self.GENERIC:
            out.append({"klass": "generic", "twoS": n, "amps": gaussian(rng, n + 1),
                        "matrix": unit_hermitian(rng, n), "t": 0.3, "contract": n <= 8})
        for n in self.KERR:
            chi = float(rng.uniform(0.5, 1.0))
            out.append({"klass": "kerr", "twoS": n,
                        "amps": amplitudes_from_roots(np.full(n, gaussian(rng, 1)[0])),
                        "builtin": "Sz2", "coupling": chi, "t": 0.03 / chi,
                        "contract": n == 4})
        n = self.POLE[k % len(self.POLE)]
        # One star on the Sy great circle, delta short of the pole, crosses
        # it at t = delta.
        delta = float(rng.uniform(0.05, 0.1))
        roots = np.concatenate([gaussian(rng, n - 1), [-math.tan((math.pi - delta) / 2.0)]])
        out.append({"klass": "pole", "twoS": n, "amps": amplitudes_from_roots(roots),
                    "builtin": "Sy", "coupling": 1.0, "t": 0.15, "contract": False})
        n = self.HIGHSPIN[k % len(self.HIGHSPIN)]
        out.append({"klass": "highspin", "twoS": n, "amps": gaussian(rng, n + 1),
                    "matrix": unit_hermitian(rng, n), "t": 0.1, "contract": False})
        return out

    @staticmethod
    def generator(item, tr):
        if "matrix" in item:
            return tr.call("dynamics.hamiltonian", hamiltonian, item["twoS"], item["matrix"])
        return tr.call("dynamics.builtin_hamiltonian", builtin_hamiltonian,
                       item["twoS"], item["builtin"], item["coupling"])

    def warm_up(self, rng) -> None:
        sizes = self.GENERIC + self.KERR + self.POLE + self.HIGHSPIN
        for n in sorted(set(sizes)):
            st = mj.SpinState(n, gaussian(rng, n + 1))
            h = hamiltonian(n, unit_hermitian(rng, n))
            mj.constellation_from_state(mj.evolve_exact(st, h, 0.1))
        evolve(mj.SpinState(4, gaussian(rng, 5)), builtin_hamiltonian(4, "Sz2", 1.0), 0.01)

    def run(self, item, tr) -> Outcome:
        klass = item["klass"]
        contract = item["contract"]
        limit = DYNAMICS_LIMIT_S[klass]
        t_final = item["t"]
        ck = np.linspace(t_final / 10.0, t_final, 10)
        with tr.span("op.dynamics"):
            state = mj.SpinState(item["twoS"], item["amps"])
            h = self.generator(item, tr)
            t0 = time.perf_counter()
            try:
                traj = run_limited(limit, tr.call, "dynamics.evolve", evolve,
                                   state, h, t_final, checkpoints=ck)
            except OpTimeout:
                return Outcome(klass, limit, 1, 1, 0, timed_out=True,
                               problems=[f"timeout at {limit} s"])
            except Exception as exc:
                return Outcome(klass, time.perf_counter() - t0, 1, 1, int(contract),
                               problems=[error_text(exc)])
            seconds = time.perf_counter() - t0
        try:
            problems = checks.check_trajectory(state, h, traj, ck)
        except mj.MajoranaError as exc:  # exact re-rooting itself failed
            problems = [f"check: {error_text(exc)}"]
        failed = int(bool(problems))
        return Outcome(
            klass, seconds, 1, failed, failed if contract else 0, problems=problems,
            counts={
                "snapshots": len(traj.times),
                "bridge_windows": len(traj.fallback_intervals),
                "bridged_snapshots": int(sum(traj.fallback_flags)),
            },
        )


# -- cli ----------------------------------------------------------------------------------

CLI_MAIN = "import sys; from majorana.cli import main; sys.exit(main())"


class Cli(Workload):
    """Op: one ``majorana`` call in a fresh interpreter."""

    unit = "call"
    CYCLE_S = 9.0
    SKIP_IN_WARM_UP = ("kings", "evolve")

    def __init__(self, src: str, workdir: str):
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=src)
        self.env.pop("MAJORANA_NUM_THREADS", None)

    def inputs(self, rng, k: int = 0) -> list[dict]:
        return [{
            "cycle": k,
            "state10": gaussian(rng, 11),
            "roots10": gaussian(rng, 10),
            "state20": gaussian(rng, 21),
            "kings_seed": int(rng.integers(2 ** 31)),
            "kerr_root": gaussian(rng, 1),
            "kerr_chi": float(rng.uniform(0.5, 1.0)),
        }]

    def _write(self, cycle: int, name: str, text: str) -> str:
        folder = os.path.join(self.workdir, f"cycle{cycle}")
        os.makedirs(folder, exist_ok=True)
        path = os.path.join(folder, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def commands(self, item) -> list[tuple]:
        """(name, argv, expected) for the seven calls of one cycle.

        expected() is the library's own serialization of the same call,
        parsed from the same payload text the child reads."""
        s10 = serialize.emit_state(mj.SpinState(10, item["state10"]))
        c10 = serialize.emit_constellation(mj.Constellation(10, item["roots10"], 0))
        s20 = serialize.emit_state(mj.SpinState(20, item["state20"]))
        kerr = serialize.emit_state(
            mj.SpinState(4, amplitudes_from_roots(np.full(4, item["kerr_root"][0])))
        )
        ham = f'{{"builtin": "Sz2", "coupling": {item["kerr_chi"]!r}}}'
        cycle = item["cycle"]
        p10 = self._write(cycle, "state10.json", s10)
        pc = self._write(cycle, "const10.json", c10)
        p20 = self._write(cycle, "state20.json", s20)
        pk = self._write(cycle, "kerr4.json", kerr)
        ph = self._write(cycle, "kerr4_h.json", ham)
        seed = item["kings_seed"]

        def stars(angles):
            c = mj.constellation_from_state(serialize.parse_state(s10))
            return serialize.emit_constellation(c, angles=angles)

        def trajectory():
            st = serialize.parse_state(kerr)
            h = serialize.parse_hamiltonian(ham, label=st.label)
            return serialize.emit_trajectory(evolve(st, h, 0.5))

        return [
            ("stars", ["stars", p10], lambda: stars(False)),
            ("stars_angles", ["stars", "--angles", p10], lambda: stars(True)),
            ("state", ["state", pc], lambda: serialize.emit_state(
                mj.state_from_constellation(serialize.parse_constellation(c10)))),
            ("qgrid", ["qgrid", "--ntheta", "64", "--nphi", "128", p10],
             lambda: serialize.emit_qgrid(q_grid(serialize.parse_state(s10), 64, 128))),
            ("multipoles", ["multipoles", p20],
             lambda: serialize.emit_multipoles(multipoles(serialize.parse_state(s20)))),
            ("kings", ["--seed", str(seed), "kings", "--twoS", "4", "--M", "2", "--restarts", "8"],
             lambda: serialize.emit_kings(minimize(4, SearchConfig(M=2, restarts=8, seed=seed)))),
            ("evolve", ["evolve", "--t", "0.5", pk, ph], trajectory),
        ]

    def ops(self, items):
        for item in items:
            for name, argv, expected in self.commands(item):
                yield functools.partial(self.run, name, argv, functools.cache(expected))

    def warm_up(self, rng) -> None:
        for name, _, expected in self.commands(self.inputs(rng)[0]):
            if name not in self.SKIP_IN_WARM_UP:
                expected()

    def run(self, name, argv, expected, tr) -> Outcome:
        try:
            want = (expected() + "\n").encode()
        except mj.MajoranaError as exc:  # the library itself cannot produce it
            want, note = None, error_text(exc)
        t0 = time.perf_counter()
        try:
            with tr.span("op.cli"):
                proc = tr.call(f"cli.{name}", subprocess.run,
                               [sys.executable, "-c", CLI_MAIN, *argv], capture_output=True,
                               env=self.env, timeout=CLI_LIMIT_S)
        except subprocess.TimeoutExpired:
            return Outcome(name, CLI_LIMIT_S, 1, 1, 0, timed_out=True,
                           problems=[f"timeout at {CLI_LIMIT_S} s"])
        seconds = time.perf_counter() - t0
        if want is None:  # the child should have failed the same way
            return Outcome(name, seconds, 1, 1, problems=[f"library: {note}"])
        problems = checks.check_cli(proc.returncode, proc.stdout, want)
        failed = int(bool(problems))
        return Outcome(name, seconds, 1, failed, failed, problems=problems)


def error_text(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {str(exc)[:120]}"
