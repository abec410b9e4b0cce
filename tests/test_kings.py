"""Searches for spin states with vanishing low-order multipoles."""

import math

import numpy as np
import pytest

import majorana as mj
from majorana.kings import KingResult, SearchConfig, max_unpolarized_order, minimize, objective
from majorana.multipoles import cumulative_quantumness, multipoles


def _chart_points(constellation):
    return [mj.sphere_to_stereo(p) for p in constellation.points()]


def _chord_multiset(constellation):
    zs = _chart_points(constellation)
    out = []
    for i in range(len(zs)):
        for j in range(i + 1, len(zs)):
            out.append(mj.chordal_distance(zs[i], zs[j]))
    return sorted(out)


def test_objective_matches_spectrum_pipeline(rng):
    amps = rng.normal(size=5) + 1j * rng.normal(size=5)
    st = mj.SpinState(4, amps)
    c = mj.constellation_from_state(st)
    spec = multipoles(mj.state_from_constellation(c))
    for M in range(1, 5):
        assert objective(c, M) == pytest.approx(
            cumulative_quantumness(spec, M), abs=1e-12
        )


def test_objective_rotation_invariant(rng):
    st = mj.SpinState(5, rng.normal(size=6) + 1j * rng.normal(size=6))
    c = mj.constellation_from_state(st)
    base = [objective(c, M) for M in range(1, 6)]
    rc = mj.constellation_from_state(mj.rotate(st, 1.1, 4.2))
    rotated = [objective(rc, M) for M in range(1, 6)]
    assert np.allclose(rotated, base, atol=1e-10)


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(M=0)
    with pytest.raises(ValueError):
        SearchConfig(M=1, restarts=0)
    with pytest.raises(ValueError):
        SearchConfig(M=1, max_iters=0)
    with pytest.raises(ValueError):
        SearchConfig(M=1, grad_tol=0.0)
    with pytest.raises(ValueError):
        minimize(4, SearchConfig(M=5))


def test_qubit_pair_is_antipodal():
    result = minimize(2, SearchConfig(M=1, restarts=8))
    assert result.objective <= 1e-12
    assert result.unpolarized_order >= 1
    z0, z1 = _chart_points(result.constellation)
    assert mj.chordal_distance(z0, z1) == pytest.approx(2.0, abs=1e-6)


def test_four_stars_form_tetrahedron():
    result = minimize(4, SearchConfig(M=2, restarts=16))
    assert result.objective <= 1e-8
    assert result.unpolarized_order == 2
    chords = _chord_multiset(result.constellation)
    assert len(chords) == 6
    # all six pairwise chords of a regular tetrahedron equal sqrt(8/3)
    assert np.allclose(chords, math.sqrt(8.0 / 3.0), atol=1e-4)


def test_six_stars_form_octahedron():
    result = minimize(6, SearchConfig(M=3, restarts=16))
    assert result.objective <= 1e-8
    assert result.unpolarized_order == 3
    chords = _chord_multiset(result.constellation)
    # 12 edges of length sqrt(2) and 3 antipodal diagonals of length 2
    assert np.allclose(chords[:12], math.sqrt(2.0), atol=1e-4)
    assert np.allclose(chords[12:], 2.0, atol=1e-4)


def test_same_seed_is_bitwise_deterministic():
    cfg = SearchConfig(M=2, restarts=6, seed=7)
    a = minimize(4, cfg)
    b = minimize(4, cfg)
    assert a.objective == b.objective
    assert a.constellation.infinity_count == b.constellation.infinity_count
    assert np.array_equal(a.constellation.finite_roots, b.constellation.finite_roots)
    assert a.history == b.history


def test_history_tracks_restarts():
    cfg = SearchConfig(M=1, restarts=5)
    result = minimize(3, cfg)
    assert isinstance(result, KingResult)
    assert len(result.history) == 5
    assert result.objective <= min(result.history) + 1e-9
    assert result.restarts_converged >= 1


def test_single_qubit_cannot_be_unpolarized():
    # One star always has a dipole moment; best A_1 for 2S=1 is 1/2.
    result = minimize(1, SearchConfig(M=1, restarts=4))
    assert result.objective == pytest.approx(0.5, abs=1e-9)
    assert result.unpolarized_order == 0


def test_max_unpolarized_order_small_spins():
    assert max_unpolarized_order(2, SearchConfig(M=1, restarts=8)) == 1
    assert max_unpolarized_order(4, SearchConfig(M=1, restarts=12)) == 2


def test_gauge_fixed_output_is_canonical():
    result = minimize(4, SearchConfig(M=2, restarts=8))
    roots = result.constellation.finite_roots
    # one star is pinned to the origin of the chart
    assert min(abs(roots)) == 0.0
    # and another has its azimuth zeroed (allow wrap just below 2 pi)
    angles = [p.phi for p in result.constellation.points() if p.theta > 1e-9]
    wrapped = min(min(abs(a), 2.0 * math.pi - abs(a)) for a in angles)
    assert wrapped < 1e-9


def test_repeated_search_is_bitwise_identical():
    cfg = SearchConfig(M=2, restarts=4, seed=3)
    base = minimize(4, cfg)
    same = minimize(4, cfg)
    assert np.array_equal(base.constellation.finite_roots, same.constellation.finite_roots)
    assert base.objective == same.objective
