"""Dynamics as choreography: the stars of exp(-i H t)|psi> on the sphere.

Linear Hamiltonians rotate the constellation rigidly. Nonlinear ones make
the stars interact through coupled first-order equations of motion,
dz_k/dt = i (Hf)(z_k) / f'(z_k). A trajectory is the exactly propagated
state re-rooted at every snapshot, so stars may start fused, collide or
run through the chart's pole, and every snapshot is still exact.
"""

import math

import numpy as np

import majorana as mj
from majorana.dynamics import builtin_hamiltonian, evolve, match_stars, star_velocities


# 1. Rigid rotation: under omega Sz each star moves on its latitude circle.
omega = 1.0
rng = np.random.default_rng(11)
psi = mj.SpinState(3, rng.normal(size=4) + 1j * rng.normal(size=4))
c0 = mj.constellation_from_state(psi)
traj = evolve(psi, builtin_hamiltonian(3, "Sz", omega), 2 * math.pi)
end = traj.snapshots[-1]
print("rigid rotation, one full turn:")
print("  roots out:", np.round(end.finite_roots, 9))
print("  roots in :", np.round(c0.finite_roots, 9))
print(f"  snapshots: {len(traj.times)}, {np.diff(traj.times).max():.5f} apart")

# 2. Kerr spreading: chi Sz^2 on a coherent state. All four stars start
# fused, then spread.
chi = 0.7
coh = mj.coherent_state(4, 0.6 + 0.2j)
h_kerr = builtin_hamiltonian(4, "Sz2", chi)
kerr = evolve(coh, h_kerr, 1.2 / chi)


def spread(c):
    zs = [mj.sphere_to_stereo(p) for p in c.points()]
    return max(
        mj.chordal_distance(zs[i], zs[j])
        for i in range(len(zs)) for j in range(i + 1, len(zs))
    )


print("\nKerr spreading from a fused start:")
for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
    t = frac * kerr.times[-1]
    print(f"  t = {t:5.3f}: spread = {spread(kerr.at(t)):.4f}")
# The snapshots obey the equations of motion: the stars' finite-difference
# velocity across two neighbouring snapshots matches star_velocities.
before, here, after = kerr.snapshots[-3:]
dt = kerr.times[-1] - kerr.times[-2]
moved = (
    after.finite_roots[match_stars(here, after)]
    - before.finite_roots[match_stars(here, before)]
) / (2 * dt)
v = star_velocities(here, h_kerr)
gap = np.abs(moved - v).max() / np.abs(v).max()
print(f"  finite-difference velocity vs equations of motion: {gap:.1e} relative")

# 3. A pole crossing: drive a single star through the pole with Sx. Its
# chart coordinate blows up in finite time, at t = pi, where the star sits
# on the pole itself.
pole = evolve(mj.basis_state(1, 1), builtin_hamiltonian(1, "Sx", 1.0), 2 * math.pi,
              checkpoints=[math.pi - 0.1, math.pi - 0.01, math.pi, math.pi + 0.01])
print("\npole crossing under Sx:")
for t in (math.pi - 0.1, math.pi - 0.01, math.pi, math.pi + 0.01):
    c = pole.at(t)
    where = "at infinity" if c.infinity_count else f"|z| = {abs(c.finite_roots[0]):.1f}"
    print(f"  t = pi {t - math.pi:+.2f}: {where}")
