"""Command-line front end: every capability behind file-based JSON/CSV I/O.

Exit codes: 0 success, 2 invalid input, 3 numerical non-convergence,
4 I/O failure.  Every subcommand reads "-" as stdin and is a thin wrapper
whose output matches the library's serialized result byte for byte.
"""

from __future__ import annotations

import sys

import click

from . import dynamics, kings, serialize, stellar
from .multipoles import multipoles as state_multipoles
from .multipoles import q_grid
from .errors import DegenerateConstellation, LabelMismatch, NonConvergence


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _emit(ctx: click.Context, text: str) -> None:
    out = ctx.obj["output"]
    if out is None:
        sys.stdout.write(text + "\n")
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


class _ExitCodes(click.Group):
    """Map every subcommand's library exceptions onto the exit-code contract."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except (NonConvergence, DegenerateConstellation) as exc:
            click.echo(f"error: {exc}", err=True)
            raise SystemExit(3)
        except (ValueError, LabelMismatch) as exc:
            click.echo(f"error: {exc}", err=True)
            raise SystemExit(2)
        except OSError as exc:
            click.echo(f"error: {exc}", err=True)
            raise SystemExit(4)


@click.group(cls=_ExitCodes)
@click.option("--seed", type=int, default=0, show_default=True,
              help="Seed for randomized subcommands.")
@click.option("--output", type=click.Path(dir_okay=False, writable=True),
              default=None, help="Write the payload to a file instead of stdout.")
@click.pass_context
def main(ctx: click.Context, seed: int, output: str | None) -> None:
    """Majorana constellations: states, stars, multipoles, kings, dynamics."""
    ctx.ensure_object(dict)
    ctx.obj.update(seed=seed, output=output)


@main.command()
@click.argument("state_file")
@click.option("--angles", is_flag=True, help="Emit (theta, phi) pairs instead of roots.")
@click.pass_context
def stars(ctx: click.Context, state_file: str, angles: bool) -> None:
    """Solve a state's root polynomial and print the constellation."""
    state = serialize.parse_state(_read(state_file))
    c = stellar.constellation_from_state(state)
    _emit(ctx, serialize.emit_constellation(c, angles=angles))


@main.command()
@click.argument("constellation_file")
@click.pass_context
def state(ctx: click.Context, constellation_file: str) -> None:
    """Rebuild the normalized state that owns a constellation."""
    c = serialize.parse_constellation(_read(constellation_file))
    _emit(ctx, serialize.emit_state(stellar.state_from_constellation(c)))


@main.command()
@click.argument("state_file")
@click.option("--ntheta", type=int, default=64, show_default=True)
@click.option("--nphi", type=int, default=128, show_default=True)
@click.pass_context
def qgrid(ctx: click.Context, state_file: str, ntheta: int, nphi: int) -> None:
    """Sample the Husimi field on a sphere grid and print it as CSV."""
    st = serialize.parse_state(_read(state_file))
    _emit(ctx, serialize.emit_qgrid(q_grid(st, ntheta, nphi)))


@main.command("multipoles")
@click.argument("state_file")
@click.option("--upto", type=int, default=None,
              help="Truncate the emitted spectrum at this order.")
@click.pass_context
def multipoles_cmd(ctx: click.Context, state_file: str, upto: int | None) -> None:
    """Print the state multipoles and cumulative quantumness."""
    st = serialize.parse_state(_read(state_file))
    _emit(ctx, serialize.emit_multipoles(state_multipoles(st), upto=upto))


@main.command("kings")
@click.option("--twoS", "two_s", type=int, required=True, help="Doubled spin 2S.")
@click.option("--M", "order", type=int, required=True,
              help="Highest multipole order to suppress.")
@click.option("--restarts", type=int, default=kings.SearchConfig.restarts,
              show_default=True)
@click.pass_context
def kings_cmd(ctx: click.Context, two_s: int, order: int, restarts: int) -> None:
    """Search for the most unpolarized constellation at order M."""
    config = kings.SearchConfig(M=order, restarts=restarts, seed=ctx.obj["seed"])
    result = kings.minimize(two_s, config)
    _emit(ctx, serialize.emit_kings(result))
    if result.restarts_converged == 0:
        raise NonConvergence("no restart converged")


@main.command()
@click.argument("state_file")
@click.argument("hamiltonian_file")
@click.option("--t", "t_final", type=float, required=True, help="Final time.")
@click.option("--dtmax", type=float, default=None, help="Largest time between snapshots.")
@click.pass_context
def evolve(
    ctx: click.Context,
    state_file: str,
    hamiltonian_file: str,
    t_final: float,
    dtmax: float | None,
) -> None:
    """Evolve the state exactly; print its constellation snapshots as JSONL."""
    st = serialize.parse_state(_read(state_file))
    ham = serialize.parse_hamiltonian(_read(hamiltonian_file), label=st.label)
    traj = dynamics.evolve(st, ham, t_final, dt_max=dtmax)
    _emit(ctx, serialize.emit_trajectory(traj))


if __name__ == "__main__":
    main()
