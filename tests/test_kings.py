"""Searches for spin states with vanishing low-order multipoles."""

import math

import numpy as np
import pytest

import majorana as mj
from majorana import kings
from majorana.kings import KingResult, SearchConfig, max_unpolarized_order, minimize, objective
from majorana.multipoles import cumulative_quantumness, multipoles
from majorana.serialize import emit_kings


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


# -- the search in spinor pairs -------------------------------------------------------


def _pair_vector(alpha, beta):
    alpha, beta = np.asarray(alpha, dtype=complex), np.asarray(beta, dtype=complex)
    return np.concatenate([alpha.real, alpha.imag, beta.real, beta.imag])


def _rebuilt(twoS, x):
    """The constellation of search point x, built straight from -beta/alpha."""
    alpha, beta = kings._pairs(x)
    finite = alpha != 0
    return mj.Constellation(twoS, -beta[finite] / alpha[finite], int(np.sum(~finite)))


@pytest.mark.parametrize("twoS", [1, 4, 12, 20])
def test_search_gradient_matches_central_differences(twoS):
    rng = np.random.default_rng(twoS)
    alpha = rng.normal(size=twoS) + 1j * rng.normal(size=twoS)
    beta = rng.normal(size=twoS) + 1j * rng.normal(size=twoS)
    alpha[0] = 0.0  # a star at the theta = pi pole
    if twoS > 1:
        beta[1] = 0.0  # a star at the theta = 0 pole
    if twoS > 3:
        alpha[3], beta[3] = 0.7j * alpha[2], 0.7j * beta[2]  # a coincident pair
    x = _pair_vector(alpha, beta)
    M = (twoS + 1) // 2

    def residuals(step):
        return kings._residuals(*kings._moved(alpha, beta, step), M)

    r, jac = residuals(np.zeros(2 * twoS))
    value = float(r @ r)
    grad = 2.0 * jac.T @ r
    assert value == pytest.approx(objective(_rebuilt(twoS, x), M), abs=1e-14)
    # Each tangent step moves a pair off unit length, which r does not see.
    h = 1e-6
    steps = h * np.eye(2 * twoS)
    central_r = np.array([(residuals(e)[0] - residuals(-e)[0]) / (2.0 * h) for e in steps]).T
    central_f = np.array([
        (np.sum(residuals(e)[0] ** 2) - np.sum(residuals(-e)[0] ** 2)) / (2.0 * h)
        for e in steps
    ])
    assert np.all(np.isfinite(jac))
    assert np.abs(central_r - jac).max() <= 1e-6 * max(1.0, np.abs(jac).max())
    assert np.abs(central_f - grad).max() <= 1e-6 * max(1.0, np.abs(grad).max())


def test_screening_matches_single_evaluations(rng):
    x = kings._random_pairs(rng, 10, 8)
    stacked = kings._screen_values(x, 10, 3)
    single = [np.sum(kings._residuals(*kings._pairs(row), 3)[0] ** 2) for row in x]
    assert np.allclose(stacked, single, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize(
    "twoS, M, restarts, optimum, evaluations",
    [
        (4, 3, 8, 0.2857142857142857, 390),
        (6, 4, 8, 0.26712008629222306, 1039),
        (10, 4, 10, 0.002927305252886633, 2440),
        (12, 6, 8, 0.13365987000837656, 2919),
    ],
)
def test_searches_reach_the_nonzero_optima(twoS, M, restarts, optimum, evaluations):
    # Here the best A_M is not zero, so the residuals do not vanish and the
    # Gauss-Newton matrix alone is not the Hessian at the optimum: with it
    # alone the polish slows to a crawl.  The BFGS model keeps each search
    # within the evaluations a plain BFGS polish takes from the same starts.
    result = minimize(twoS, SearchConfig(M=M, restarts=restarts, seed=0))
    assert result.objective == pytest.approx(optimum, rel=1e-9)
    assert result.restarts_converged == restarts
    assert sum(r.evaluations for r in result.restart_records) <= evaluations
    if (twoS, M) == (12, 6):
        # Two of its restarts keep a start that stalls at the rounding floor
        # of A_M, where no damped trial can promise a decrease f could show:
        # it stops by f_tol instead of rejecting 20 trials (line_search).
        assert all(r.stop_reason != "line_search" for r in result.restart_records)
    # No start reaches A_M <= ZERO_TOL here, so none may end the restart
    # early as if it had found a king.
    assert all(r.stop_reason != "king_found" for r in result.restart_records)


def test_single_restarts_are_reliable():
    for (twoS, M), seeds in (((4, 2), 200), ((6, 3), 50), ((10, 3), 50),
                             ((12, 5), 50), ((20, 2), 50)):
        for seed in range(seeds):
            result = minimize(twoS, SearchConfig(M=M, restarts=1, seed=seed))
            assert result.objective <= 1e-8, (twoS, M, seed, result.objective)
            assert result.restarts_converged == 1, (twoS, M, seed)


def test_twelve_stars_form_icosahedron():
    result = minimize(12, SearchConfig(M=5, restarts=8))
    chords = _chord_multiset(result.constellation)
    edge = 4.0 / math.sqrt(10.0 + 2.0 * math.sqrt(5.0))
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    want = [edge] * 30 + [edge * golden] * 30 + [2.0] * 6
    assert len(chords) == 66
    assert np.abs(np.array(chords) - np.array(want)).max() <= 1e-6


def test_restart_ending_at_south_pole(monkeypatch):
    # An exact octahedron with a star at each pole, the south one as alpha = 0.
    alpha = [1.0, 0.0, 1.0, 1.0, 1.0, 1.0]
    beta = [0.0, 1.0, -1.0, 1.0, -1j, 1j]
    x = _pair_vector(alpha, beta)
    monkeypatch.setattr(kings, "_random_pairs", lambda rng, n, count: np.tile(x, (count, 1)))
    result = minimize(6, SearchConfig(M=3, restarts=1))
    assert result.constellation.infinity_count == 1
    assert np.all(np.isfinite(result.constellation.finite_roots))
    assert np.isfinite(result.objective) and result.objective <= 1e-20
    assert all(np.isfinite(v) for v in result.history)
    assert result.restarts_converged == 1
    # The gradient vanishes at the start, so neither start takes a step.
    (record,) = result.restart_records
    assert record.stop_reason == "grad_tol"
    assert record.iterations == 0
    assert record.evaluations == 2


def test_start_stationary_at_a_king_ends_the_restart(monkeypatch):
    # One screening candidate is an exact octahedron, a king at M = 3; the
    # others are random.  It ranks first, meets grad_tol at its first
    # evaluation, and the random start stops with it before any round.
    alpha = [1.0, 0.0, 1.0, 1.0, 1.0, 1.0]
    beta = [0.0, 1.0, -1.0, 1.0, -1j, 1j]
    x = _pair_vector(alpha, beta)
    draw = kings._random_pairs

    def with_king(rng, n, count):
        out = draw(rng, n, count)
        out[count // 2] = x
        return out

    monkeypatch.setattr(kings, "_random_pairs", with_king)
    config = SearchConfig(M=3, restarts=1)
    result = minimize(6, config)
    (record,) = result.restart_records
    assert record.iterations == 0
    assert record.evaluations == 2
    assert record.stop_reason == "grad_tol"
    assert record.converged
    assert result.objective <= 1e-20
    # The random start stops with the king, not by a rule of its own.
    x0 = np.stack([x, draw(np.random.default_rng(1), 6, 1)[0]])
    *_, steps, reasons = kings._polish(x0, 6, config)
    assert steps == [0, 0]
    assert reasons == ["grad_tol", "king_found"]


def test_polish_stops_at_the_iteration_cap():
    config = SearchConfig(M=2, restarts=1, max_iters=1)
    x0 = kings._random_pairs(np.random.default_rng(5), 4, 2)
    *_, evaluations, steps, reasons = kings._polish(x0, 4, config)
    assert steps == [1, 1]
    assert reasons == ["max_iters", "max_iters"]
    assert all(e >= 2 for e in evaluations)
    (record,) = minimize(4, config).restart_records
    assert record.iterations == 2
    assert record.stop_reason == "max_iters"


def test_restart_records():
    result = minimize(6, SearchConfig(M=3, restarts=3, seed=2))
    records = result.restart_records
    assert len(records) == 3
    assert sum(r.converged for r in records) == result.restarts_converged
    for r in records:
        assert r.evaluations >= r.iterations >= 1
        assert r.stop_reason
        assert r.seconds > 0.0
    # The records are not part of the serialized result.
    assert "evaluations" not in emit_kings(result)
