"""Print a SHA-256 over the bits of every output of a benchmark workload.

The inputs are the ones bench/run.py builds for the workload: cycle k of a
seed comes from bench/workloads.py with numpy.random.default_rng([seed, k]).
bench/workloads.py is imported, never changed.  Each output is hashed by
the bytes of its value (ndarray.tobytes(), or the message of an error), in
input order:

* roundtrip: per batch, each state's finite roots and pole-star count and
  the amplitudes rebuilt from its stars, or the message of the error the
  batch raised;
* kings: per search, the gauge-fixed stars and pole-star count, the
  objective, the unpolarized order and the restart history;
* dynamics: per input, evolved with its ten checkpoints as the benchmark
  evolves it, the snapshot times and every snapshot's finite roots and
  pole-star count, or the message of the error evolve raised;
* cli: the expected() text of each of the seven commands of Cli.commands,
  the library's own serialization of the call, whose payload files go to
  a temporary directory.  The benchmark checks that the majorana command
  prints that text byte for byte, so this digest stands for its stdout.

Two checkouts whose code gives the same bits print the same digest, so a
change that claims to keep every output's bits can show it:

    python tools/output_digest.py --workload roundtrip --seed 1
    python tools/output_digest.py --workload kings --seed 1 --src OTHER/src

--src names the src/ directory the package is imported from (default: the
one next to this file).  --per-class prints one digest per input class as
well, so a change that moves bits can say which classes moved.  LAPACK's
bits can differ between CPUs, so compare digests taken on one machine.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def roundtrip_outputs(wl, mj, rng, k: int):
    """(class, bytes) of every output of roundtrip cycle k."""
    for item in wl.Roundtrip().inputs(rng, k):
        states = [mj.SpinState(n, a) for n, a in item["states"]]
        try:
            cons = mj.constellations_from_states(states)
        except mj.MajoranaError as exc:
            yield item["klass"], f"{type(exc).__name__}: {exc}".encode()
            continue
        for c in cons:
            back = mj.state_from_constellation(c)
            yield item["klass"], c.finite_roots.tobytes()
            yield item["klass"], c.infinity_count.to_bytes(8, "little")
            yield item["klass"], back.amplitudes.tobytes()


def kings_outputs(wl, mj, rng, k: int):
    """(class, bytes) of every output of kings cycle k."""
    for item in wl.Kings().inputs(rng, k):
        n, M = item["twoS"], item["M"]
        config = mj.SearchConfig(M=M, restarts=wl.Kings.RESTARTS, seed=item["seed"])
        result = mj.minimize(n, config)
        klass = f"twoS{n}_M{M}"
        yield klass, result.constellation.finite_roots.tobytes()
        yield klass, result.constellation.infinity_count.to_bytes(8, "little")
        yield klass, np.float64(result.objective).tobytes()
        yield klass, result.unpolarized_order.to_bytes(8, "little")
        yield klass, np.array(result.history, dtype=float).tobytes()


def dynamics_outputs(wl, mj, rng, k: int):
    """(class, bytes) of every output of dynamics cycle k."""
    from tracing import NullTracer

    for item in wl.Dynamics().inputs(rng, k):
        state = mj.SpinState(item["twoS"], item["amps"])
        h = wl.Dynamics.generator(item, NullTracer())
        t_final = item["t"]
        checkpoints = np.linspace(t_final / 10.0, t_final, 10)
        try:
            traj = mj.evolve(state, h, t_final, checkpoints=checkpoints)
        except mj.MajoranaError as exc:
            yield item["klass"], f"{type(exc).__name__}: {exc}".encode()
            continue
        yield item["klass"], traj.times.tobytes()
        for c in traj.snapshots:
            yield item["klass"], c.finite_roots.tobytes()
            yield item["klass"], c.infinity_count.to_bytes(8, "little")


def cli_outputs(wl, mj, rng, k: int):
    """(class, bytes) of every output of cli cycle k."""
    with tempfile.TemporaryDirectory() as workdir:
        cli = wl.Cli(src=str(Path(mj.__file__).parents[1]), workdir=workdir)
        for item in cli.inputs(rng, k):
            for name, _, expected in cli.commands(item):
                yield name, expected().encode()


OUTPUTS = {
    "roundtrip": roundtrip_outputs,
    "kings": kings_outputs,
    "dynamics": dynamics_outputs,
    "cli": cli_outputs,
}


def load(src: Path):
    """bench/workloads.py and the majorana package imported from src."""
    for path in (ROOT / "bench", src):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    import majorana
    import workloads

    if Path(majorana.__file__).resolve().parent != src.resolve() / "majorana":
        raise SystemExit(f"imported majorana from {majorana.__file__}, not from {src}")
    return workloads, majorana


def outputs(workload: str, seed: int, cycles: int, src: Path = ROOT / "src"):
    """Every (class, bytes) output of the workload's first cycles, in order."""
    wl, mj = load(src)
    for k in range(cycles):
        yield from OUTPUTS[workload](wl, mj, np.random.default_rng([seed, k]), k)


def digests(chunks) -> dict[str, str]:
    """SHA-256 over every chunk ("all") and over each class's chunks.  Each
    chunk is hashed after its length, so no two splits of one byte string
    read alike."""
    hashes = {"all": hashlib.sha256()}
    for klass, data in chunks:
        for key in ("all", klass):
            h = hashes.setdefault(key, hashlib.sha256())
            h.update(len(data).to_bytes(8, "little"))
            h.update(data)
    return {key: h.hexdigest() for key, h in hashes.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(OUTPUTS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--cycles", type=int, default=3)
    p.add_argument("--per-class", action="store_true")
    p.add_argument("--src", type=Path, default=ROOT / "src")
    args = p.parse_args(argv)
    found = digests(outputs(args.workload, args.seed, args.cycles, args.src))
    print(f"{args.workload} seed {args.seed} cycles {args.cycles}: {found.pop('all')}")
    if args.per_class:
        for klass in sorted(found):
            print(f"  {klass}: {found[klass]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
