"""Searches for spin states with vanishing low-order multipoles."""

import itertools
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import majorana as mj
from majorana import kings
from majorana.kings import KingResult, SearchConfig, max_unpolarized_order, minimize, objective
from majorana.multipoles import cumulative_quantumness, multipoles
from majorana.serialize import emit_kings, parse_constellation

from oracles import refine_king

_ARTIFACTS = Path(__file__).resolve().parent / "artifacts"
# The (2S, M) of the benchmark's king searches.
_BENCHMARK_CONFIGS = ((4, 2), (6, 3), (10, 3), (12, 5), (20, 2))


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
    for M in (0, 5):
        with pytest.raises(ValueError, match=r"outside 1\.\.4"):
            objective(c, M)


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
        minimize(4, SearchConfig(M=5))
    # One integer rule for every field, as for SpinLabel: Python and numpy
    # integers, never a bool, each refused by name.
    for field in ("M", "restarts", "seed"):
        for bad in (2.5, 1.5, True, np.True_, 2.0, "2", None):
            with pytest.raises(ValueError, match=f"{field} must be an integer"):
                SearchConfig(**{"M": 1, field: bad})
    config = SearchConfig(M=np.int64(2), restarts=np.int32(1), seed=np.int64(3))
    assert all(type(v) is int for v in (config.M, config.restarts, config.seed))
    same = SearchConfig(M=2, restarts=1, seed=3)
    assert minimize(4, config).history == minimize(4, same).history


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


@pytest.mark.parametrize("restarts, seed", [(6, 7), (4, 3)])
def test_same_seed_is_bitwise_deterministic(restarts, seed):
    cfg = SearchConfig(M=2, restarts=restarts, seed=seed)
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
    # The octahedron, cube and icosahedron.
    assert max_unpolarized_order(6, SearchConfig(M=1, restarts=8)) == 3
    assert max_unpolarized_order(8, SearchConfig(M=1, restarts=8)) == 3
    assert max_unpolarized_order(12, SearchConfig(M=1, restarts=8)) == 5


def _assert_gauge_fixed(result):
    roots = result.constellation.finite_roots
    # one star is pinned to the origin of the chart
    assert min(abs(roots)) == 0.0
    # and another has its azimuth zeroed (allow wrap just below 2 pi)
    angles = [p.phi for p in result.constellation.points() if p.theta > 1e-9]
    wrapped = min(min(abs(a), 2.0 * math.pi - abs(a)) for a in angles)
    assert wrapped < 1e-9


def test_gauge_fixed_output_is_canonical():
    _assert_gauge_fixed(minimize(4, SearchConfig(M=2, restarts=8)))
    # Single-restart searches at the benchmark's configurations.
    for twoS, M in _BENCHMARK_CONFIGS:
        for seed in range(20):
            _assert_gauge_fixed(minimize(twoS, SearchConfig(M=M, restarts=1, seed=seed)))


def test_reported_objective_and_order_match_the_stars():
    # The objective is the polish's A_M and the order is read from the
    # polished psi; both agree with the state rebuilt from the reported stars.
    for twoS, M in _BENCHMARK_CONFIGS:
        for seed in range(20):
            result = minimize(twoS, SearchConfig(M=M, restarts=1, seed=seed))
            assert abs(result.objective - objective(result.constellation, M)) <= 1e-14
            A = multipoles(mj.state_from_constellation(result.constellation)).A
            order = next((K - 1 for K in range(1, twoS + 1) if A[K] > kings.ZERO_TOL), twoS)
            assert result.unpolarized_order == order, (twoS, M, seed)


def test_order_reads_every_order_when_the_next_vanishes(monkeypatch):
    # An exact octahedron searched at M = 1 is stationary at the start, and
    # A_2 vanishes there too, so the order comes from every order: 3.
    monkeypatch.setattr(
        kings, "_random_states", lambda rng, dim, count: np.tile(_OCTAHEDRON, (count, 1))
    )
    assert minimize(6, SearchConfig(M=1, restarts=1)).unpolarized_order == 3
    # At M = 2, A_3 vanishes as well.
    assert minimize(6, SearchConfig(M=2, restarts=1)).unpolarized_order == 3


# -- the search in amplitudes ----------------------------------------------------------


# An exact octahedron with a star at each pole: the stellar polynomial
# w^5 - w has the stars 0, +-1, +-i and, one degree short, one at infinity.
_OCTAHEDRON = np.array([0.0, -1.0, 0.0, 0.0, 0.0, 1.0, 0.0], dtype=complex) / math.sqrt(2.0)


def _amplitudes(constellation):
    return mj.state_from_constellation(constellation).amplitudes


@pytest.mark.parametrize("twoS", [1, 4, 12, 20])
def test_search_gradient_matches_central_differences(twoS):
    # The state of a constellation with a star at the theta = pi pole, one at
    # the theta = 0 pole and a coincident pair.
    rng = np.random.default_rng(twoS)
    roots = rng.normal(size=twoS - 1) + 1j * rng.normal(size=twoS - 1)
    if twoS > 1:
        roots[0] = 0.0
    if twoS > 3:
        roots[2] = roots[1]
    c = mj.Constellation(twoS, roots, 1)
    psi = _amplitudes(c)
    M = (twoS + 1) // 2

    def residuals(step):
        return kings._residuals(kings._moved(psi, step), M)

    d = 2 * (twoS + 1)
    r, jac = residuals(np.zeros(d))
    value = float(r @ r)
    grad = 2.0 * jac.T @ r
    assert value == pytest.approx(objective(c, M), abs=1e-14)
    # Each step moves psi off unit length, which r does not see.
    h = 1e-6
    steps = h * np.eye(d)
    central_r = np.array([(residuals(e)[0] - residuals(-e)[0]) / (2.0 * h) for e in steps]).T
    central_f = np.array([
        (np.sum(residuals(e)[0] ** 2) - np.sum(residuals(-e)[0] ** 2)) / (2.0 * h)
        for e in steps
    ])
    assert np.all(np.isfinite(jac))
    assert np.abs(central_r - jac).max() <= 1e-6 * max(1.0, np.abs(jac).max())
    assert np.abs(central_f - grad).max() <= 1e-6 * max(1.0, np.abs(grad).max())


def test_screening_matches_single_evaluations(rng):
    # The screen's tensor-table product against the polish's operator
    # stack, at the benchmark's configurations and at (20, 6), the largest
    # stack the suite searches.
    for twoS, M in (*_BENCHMARK_CONFIGS, (20, 6)):
        psi = kings._random_states(rng, twoS + 1, 8)
        assert np.allclose(np.linalg.norm(psi, axis=1), 1.0, rtol=0.0, atol=1e-15)
        stacked = kings._cumulative_strengths(psi, M)[:, -1]
        single = [np.sum(kings._residuals(p, M)[0] ** 2) for p in psi]
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


def test_king_polish_evaluations():
    # One restart at each of the benchmark's configurations and seeds 0-19
    # took 567 evaluations in all with damping in proportion to |r|, and 624
    # with damping that followed Nielsen's rule alone; moving the stars as
    # spinor pairs, they took 1172.
    total = 0
    for twoS, M in _BENCHMARK_CONFIGS:
        for seed in range(20):
            (record,) = minimize(twoS, SearchConfig(M=M, restarts=1, seed=seed)).restart_records
            total += record.evaluations
    assert total <= 595, total


def test_near_tie_winner_is_stable_under_one_ulp(monkeypatch):
    # At (2S, M) = (4, 3) the least A_M is 2/7, not 0.  These four restarts
    # all reach it, and their polish values agree within a few ulps, well
    # inside the tie band of 4 eps.  Moving any one of them by an ulp must
    # not move the report.
    config = SearchConfig(M=3, restarts=4, seed=0)
    base = minimize(4, config)
    assert base.objective == pytest.approx(2.0 / 7.0, rel=1e-12)
    assert max(base.history) - min(base.history) <= 8.0 * np.spacing(base.objective)
    polish = kings._polish
    for nudged in range(config.restarts):
        for direction in (-np.inf, np.inf):
            calls = iter(range(config.restarts))

            def shifted(psi, M):
                psi, f, *rest = polish(psi, M)
                if next(calls) == nudged:
                    f = float(np.nextafter(f, direction))
                return (psi, f, *rest)

            monkeypatch.setattr(kings, "_polish", shifted)
            result = minimize(4, config)
            assert result.history[nudged] == np.nextafter(base.history[nudged], direction)
            assert np.array_equal(
                result.constellation.finite_roots, base.constellation.finite_roots
            ), (nudged, direction)


def test_single_restarts_are_reliable():
    for (twoS, M), seeds in zip(_BENCHMARK_CONFIGS, (200, 50, 50, 50, 50)):
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
    monkeypatch.setattr(
        kings, "_random_states", lambda rng, dim, count: np.tile(_OCTAHEDRON, (count, 1))
    )
    result = minimize(6, SearchConfig(M=3, restarts=1))
    assert result.constellation.infinity_count == 1
    assert np.all(np.isfinite(result.constellation.finite_roots))
    assert np.isfinite(result.objective) and result.objective <= 1e-20
    assert all(np.isfinite(v) for v in result.history)
    assert result.restarts_converged == 1
    # The gradient vanishes at the start, so the polish takes no step.
    (record,) = result.restart_records
    assert record.stop_reason == "grad_tol"
    assert record.iterations == 0
    assert record.evaluations == 1


def test_start_stationary_at_a_king_ends_the_restart(monkeypatch):
    # One screening candidate is an exact octahedron, a king at M = 3; the
    # others are random.  It ranks first and meets grad_tol at its first
    # evaluation, before any round.
    draw = kings._random_states

    def with_king(rng, dim, count):
        psi = draw(rng, dim, count)
        psi[count // 2] = _OCTAHEDRON
        return psi

    monkeypatch.setattr(kings, "_random_states", with_king)
    config = SearchConfig(M=3, restarts=1)
    result = minimize(6, config)
    (record,) = result.restart_records
    assert record.iterations == 0
    assert record.evaluations == 1
    assert record.stop_reason == "grad_tol"
    assert record.converged
    assert result.objective <= 1e-20
    assert result.constellation.infinity_count == 1


def test_polish_stops_at_the_iteration_cap(monkeypatch):
    monkeypatch.setattr(kings, "_MAX_ITERS", 1)
    config = SearchConfig(M=2, restarts=1)
    (psi,) = kings._random_states(np.random.default_rng(5), 5, 1)
    *_, evaluations, steps, reason = kings._polish(psi, 2)
    assert steps == 1
    assert reason == "max_iters"
    assert evaluations >= 2
    (record,) = minimize(4, config).restart_records
    assert record.iterations == 1
    assert record.stop_reason == "max_iters"


def test_polish_stops_when_every_damped_trial_is_rejected(monkeypatch):
    # The fake objective rises at every call, so no trial meets the Armijo
    # test, and its steep gradient keeps the damped model's promise above
    # the rounding of f through every backtrack: only the backtrack count
    # ends the polish.
    calls = itertools.count(1)

    def rising(r, jac):
        d = jac.shape[-1]
        return float(next(calls)), np.full(d, 1e16), np.eye(d)

    monkeypatch.setattr(kings, "_gauss_newton", rising)
    (psi,) = kings._random_states(np.random.default_rng(5), 5, 1)
    *_, evaluations, steps, reason = kings._polish(psi, 2)
    assert reason == "line_search"
    assert steps == 0
    assert evaluations == 1 + kings._BACKTRACKS == 21


@pytest.mark.parametrize("finite_calls", [0, 1])
def test_polish_rejects_trials_that_are_not_finite(monkeypatch, finite_calls):
    # f and g are NaN from the given call on.  From the start, every trial
    # step is NaN; from the first trial, every trial's f is (a steep finite
    # start keeps the damped model's promise above the rounding of f, as in
    # the test above).  Each counts as a rejected trial, psi is not moved by
    # it, and the backtrack count ends the polish with no RuntimeWarning
    # (the suite makes one an error).
    calls = itertools.count()

    def undefined(r, jac):
        d = jac.shape[-1]
        if next(calls) < finite_calls:
            return 1.0, np.full(d, 1e16), np.eye(d)
        return np.nan, np.full(d, np.nan), np.eye(d)

    monkeypatch.setattr(kings, "_gauss_newton", undefined)
    (psi,) = kings._random_states(np.random.default_rng(5), 5, 1)
    end, f, evaluations, steps, reason = kings._polish(psi, 2)
    assert reason == "line_search"
    assert (evaluations, steps) == (1 + finite_calls * kings._BACKTRACKS, 0)
    assert np.array_equal(end, psi)


def test_order_scan_raises_when_no_restart_converges(monkeypatch):
    # The scan converges at M = 1 and reports no converged restart at M = 2.
    search = kings.minimize

    def unconverged_at_two(label, config):
        result = search(label, config)
        return replace(result, restarts_converged=0) if config.M == 2 else result

    monkeypatch.setattr(kings, "minimize", unconverged_at_two)
    with pytest.raises(mj.NonConvergence, match="no restart converged at M=2"):
        max_unpolarized_order(4, SearchConfig(M=1, restarts=1))


def _solid(vertices):
    """The constellation of stars at the given vertices, exact at the poles:
    the unit vertex (x, y, z) is the star (x - iy) / (1 + z) on the northern
    half, and the same point (1 - z) / (x + iy) on the southern, where the
    south pole is a star at infinity."""
    unit = np.array(vertices, dtype=float) / np.linalg.norm(vertices, axis=1)[:, None]
    stars = []
    for x, y, z in unit:
        if z >= 0.0:
            stars.append(complex(x, -y) / (1.0 + z))
        elif x or y:
            stars.append((1.0 - z) / complex(x, y))
    return mj.Constellation(len(unit), stars, len(unit) - len(stars))


def _signs(v):
    return {tuple(s * c for s, c in zip(sign, v)) for sign in itertools.product((1, -1), repeat=3)}


def _cycled(points):
    return sorted({p[k:] + p[:k] for p in points for k in range(3)})


_GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


@pytest.mark.parametrize(
    "vertices, M, next_order",
    [
        pytest.param([(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)], 2,
                     pytest.approx(1.0 / 2.0, rel=1e-12), id="tetrahedron"),
        pytest.param(_cycled(_signs((1, 0, 0))), 3,
                     pytest.approx(6.0 / 11.0, rel=1e-12), id="octahedron"),
        pytest.param(sorted(_signs((1, 1, 1))), 3,
                     pytest.approx(98.0 / 429.0, rel=1e-12), id="cube"),
        pytest.param(_cycled(_signs((0, 1, _GOLDEN))), 5,
                     pytest.approx(121.0 / 323.0, rel=1e-12), id="icosahedron"),
        pytest.param(sorted(_signs((1, 1, 1))) + _cycled(_signs((0, 1 / _GOLDEN, _GOLDEN))), 5,
                     pytest.approx(0.0933, abs=1e-4), id="dodecahedron"),
    ],
)
def test_platonic_solids_are_exact_kings(vertices, M, next_order):
    # Each solid's vertices suppress every multipole through order M and
    # not the next: exact oracles for the objective, the residuals and the
    # screening.
    c = _solid(vertices)
    assert objective(c, M) <= 1e-27
    assert objective(c, M + 1) == next_order
    psi = _amplitudes(c)
    r, _ = kings._residuals(psi, M)
    assert float(r @ r) <= 1e-26
    assert kings._cumulative_strengths(psi[None], M)[0, -1] <= 1e-26


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


@pytest.mark.parametrize("name", ["kings_S5", "kings_S6", "kings_S10"])
def test_committed_kings_are_certified_zeros(name):
    # 50-digit residuals from the exact ladder, each step from the float
    # pseudo-inverse of the starting Jacobian: the refinement must contract
    # at every step to below 1e-40, so a true zero of A_M lies next to the
    # committed stars: 3.6e-8, 1.3e-8 and 1.1e-6 chord from them (2S = 10,
    # 12 and 20; the 2S = 20 king is ill-conditioned).
    record = json.loads((_ARTIFACTS / f"{name}.json").read_text(encoding="utf-8"))
    stars = parse_constellation(json.dumps(record["constellation"]))
    psi = mj.state_from_constellation(stars).amplitudes
    M = record["M"]
    _, history, chord = refine_king(psi, M)
    assert float(history[0]) ** 2 == pytest.approx(multipoles(mj.SpinState(stars.label, psi)).A[M],
                                                   rel=1e-6)
    assert history[-1] < 1e-40
    assert all(b < a for a, b in zip(history, history[1:]))
    assert chord <= 1e-5


def _certificate(psi, M):
    """What refine_king reads of the float state psi: its starting |r|,
    whether the refinement contracts at every step to below 1e-40, and the
    chord from its stars to the refined zero's."""
    _, history, chord = refine_king(psi, M)
    contracts = history[-1] < 1e-40 and all(b < a for a, b in zip(history, history[1:]))
    return float(history[0]), contracts, chord


def _fresh_king(twoS, M, seed):
    result = minimize(twoS, SearchConfig(M=M, restarts=1, seed=seed))
    return mj.state_from_constellation(result.constellation).amplitudes


@pytest.mark.parametrize(
    "twoS, M, seed", [(*config, seed) for config in _BENCHMARK_CONFIGS for seed in range(20)]
)
def test_fresh_kings_are_certified_zeros(twoS, M, seed):
    # One restart at each of the benchmark's configurations: its king lies
    # within 1e-7 chord of a true zero of A_M.  Over seeds 0-19 the worst
    # start read 2.4e-9 and the worst chord 4.8e-9.  Seeds 2, 5, 6, 8 and 18
    # at (12, 5) refine to the icosahedron with one star within 1e-14 of
    # z = 0 and one beyond 1e14: both end coefficients are about 1e-16 of
    # the largest, and its stars are solved in the rotated frame.
    start, contracts, chord = _certificate(_fresh_king(twoS, M, seed), M)
    assert start <= 1e-8
    assert contracts
    assert chord <= 1e-7


@pytest.mark.parametrize("twoS, M", [(4, 2), (12, 5)])
def test_moved_kings_do_not_certify(twoS, M):
    # Negative control for the test above: the seed-0 king moved by a seeded
    # complex step of length 1e-6 misses its start and chord bounds (they
    # read |r| = 8.2e-7 and 6.0e-7, chord 1.7e-6 and 4.8e-7).
    psi = _fresh_king(twoS, M, 0)
    step = np.random.default_rng(0).standard_normal((twoS + 1, 2)).view(complex)[:, 0]
    moved = psi + 1e-6 * step / np.linalg.norm(step)
    start, _, chord = _certificate(moved / np.linalg.norm(moved), M)
    assert start > 1e-8
    assert chord > 1e-7


def test_nonzero_optimum_does_not_certify():
    # At (2S, M) = (4, 3) the least A_3 is 2/7, not 0: the residuals have no
    # zero there, and the refinement stalls at |r| = sqrt(2/7).
    result = minimize(4, SearchConfig(M=3, restarts=4))
    assert result.objective == pytest.approx(2 / 7, rel=1e-9)
    _, history, _ = refine_king(mj.state_from_constellation(result.constellation).amplitudes, 3)
    assert float(history[-1]) == pytest.approx(math.sqrt(2 / 7), rel=1e-6)
