"""Shows that every correctness check passes a good output and trips on a
deliberately corrupted one, and that BENCHMARK.json lists exactly the
metrics the harness prints.

    python3 bench/selftest.py

Exits 0 when all cases behave, 1 otherwise.  Run from a source checkout.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import numpy as np  # noqa: E402

import majorana as mj  # noqa: E402
from majorana.dynamics import evolve, evolve_exact, hamiltonian  # noqa: E402
from majorana.kings import SearchConfig, minimize  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402


def expect(label: str, problems: list[str], want: str | None) -> bool:
    """want=None: the output must pass; otherwise a problem containing want."""
    ok = not problems if want is None else any(want in p for p in problems)
    print(f"{'ok  ' if ok else 'FAIL'} {label}: {problems or 'passes'}")
    return ok


def nudge(c: mj.Constellation, by: float) -> mj.Constellation:
    roots = np.array(c.finite_roots)
    roots[0] += by
    return mj.Constellation(c.label, roots, c.infinity_count)


def main() -> int:
    rng = np.random.default_rng(5)
    results = []

    st = mj.SpinState(6, wl.gaussian(rng, 7))
    c = mj.constellation_from_state(st)
    back = mj.state_from_constellation(c)
    results += [
        expect("roundtrip good", checks.check_roundtrip(st, c, back), None),
        expect("roundtrip moved star", checks.check_roundtrip(st, nudge(c, 1e-6), back), "residual"),
        expect("roundtrip wrong state", checks.check_roundtrip(
            st, c, mj.SpinState(6, back.amplitudes + 1e-4 * wl.gaussian(rng, 7))), "infidelity"),
    ]

    res = minimize(4, SearchConfig(M=2, restarts=2, seed=1))
    results += [
        expect("kings good", checks.check_king(res, 2), None),
        expect("kings moved star", checks.check_king(
            dataclasses.replace(res, constellation=nudge(res.constellation, 1e-2)), 2), "A_2"),
        expect("kings none converged", checks.check_king(
            dataclasses.replace(res, restarts_converged=0), 2), "converged"),
    ]

    h = hamiltonian(3, wl.unit_hermitian(rng, 3))
    st = mj.SpinState(3, wl.gaussian(rng, 4))
    ck = np.linspace(0.1, 1.0, 10)
    traj = evolve(st, h, 1.0, checkpoints=ck)
    last = len(traj.times) - 1

    def with_last(snapshot):
        snaps = traj.snapshots[:last] + (snapshot,)
        return dataclasses.replace(traj, snapshots=snaps)

    late = mj.constellation_from_state(evolve_exact(st, h, 1.0 + 1e-4))
    shifted = dataclasses.replace(traj, times=np.where(traj.times == 0.5, 0.5 + 1e-6, traj.times))
    late_problems = checks.check_trajectory(st, h, with_last(late), ck)
    results += [
        expect("dynamics good", checks.check_trajectory(st, h, traj, ck), None),
        expect("dynamics late snapshot", late_problems, "checkpoint chord"),
        expect("dynamics late snapshot keeps energy",
               [p for p in late_problems if "energy" in p], None),
        expect("dynamics moved star", checks.check_trajectory(
            st, h, with_last(nudge(traj.snapshots[last], 1e-3)), ck), "energy drift"),
        expect("dynamics missing checkpoint", checks.check_trajectory(st, h, shifted, ck),
               "not recorded"),
    ]

    results += [
        expect("cli good", checks.check_cli(0, b"{}\n", b"{}\n"), None),
        expect("cli exit code", checks.check_cli(3, b"{}\n", b"{}\n"), "exit code"),
        expect("cli changed byte", checks.check_cli(0, b"{1}\n", b"{0}\n"), "stdout differs"),
    ]

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    e2e = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    per_layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    results += [
        expect("BENCHMARK.json end_to_end", [] if e2e == list(run.END_TO_END.items())
               else [f"{e2e} != {list(run.END_TO_END.items())}"], None),
        expect("BENCHMARK.json per_layer", [] if per_layer == list(layers.PER_LAYER)
               else ["per_layer differs from layers.PER_LAYER"], None),
    ]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
