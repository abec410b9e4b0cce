"""Emit/parse round trips and schema validation."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

import majorana as mj
from majorana.dynamics import builtin_hamiltonian, evolve
from majorana.errors import LabelMismatch
from majorana.kings import SearchConfig, minimize
from majorana.multipoles import multipoles, q_grid
from majorana.serialize import (
    emit_constellation,
    emit_kings,
    emit_multipoles,
    emit_qgrid,
    emit_state,
    emit_trajectory,
    parse_constellation,
    parse_hamiltonian,
    parse_state,
)

from samples import random_state


# -- states ---------------------------------------------------------------------


def test_state_emission_frozen():
    got = emit_state(mj.noon_state(2))
    want = (
        '{"twoS":2,"amplitudes":[[-0.7071067811865475,0.0],'
        "[0.0,0.0],[0.7071067811865475,0.0]]}"
    )
    assert got == want


def test_state_round_trip_is_bit_exact(rng):
    for twoS in (1, 3, 7):
        st = random_state(rng, twoS)
        back = parse_state(emit_state(st))
        assert back.label == st.label
        assert back.amplitudes.tobytes() == st.amplitudes.tobytes()


def test_state_accepts_plain_numbers():
    st = parse_state('{"twoS":1,"amplitudes":[1,[0,1]]}')
    assert np.allclose(st.amplitudes, [1 / math.sqrt(2), 1j / math.sqrt(2)])


def test_state_rejects_malformed():
    with pytest.raises(ValueError):
        parse_state('{"amplitudes":[[1,0]]}')
    with pytest.raises(ValueError):
        parse_state('{"twoS":2,"amplitudes":[[1,0]]}')
    with pytest.raises(ValueError):
        parse_state('{"twoS":true,"amplitudes":[[1,0],[0,0]]}')
    with pytest.raises(ValueError):
        parse_state('{"twoS":1,"amplitudes":"nope"}')
    with pytest.raises(ValueError):
        parse_state('{"twoS":1,"amplitudes":[[1,0],[0,')
    with pytest.raises(ValueError, match="JSON object"):
        parse_state('[1, [1, 0], [0, 0]]')
    with pytest.raises(ValueError, match=r"\[re, im\] pairs"):
        parse_state('{"twoS":1,"amplitudes":[[1,0],[0,0,0]]}')


# -- constellations ----------------------------------------------------------------


def test_constellation_round_trip_exact(rng):
    c = mj.Constellation(5, [0.3 + 0.4j, -1.25, 2.0 - 1e-7j], 2)
    back = parse_constellation(emit_constellation(c))
    assert back.label == c.label
    assert back.infinity_count == 2
    assert np.array_equal(back.finite_roots, c.finite_roots)


def test_constellation_angles_round_trip():
    c = mj.Constellation(3, [0.0, 1.0 + 1.0j], 1)
    back = parse_constellation(emit_constellation(c, angles=True))
    assert back.label == c.label
    assert back.infinity_count == 1
    assert np.allclose(back.finite_roots, c.finite_roots, atol=1e-12)


def test_constellation_angles_infer_twos():
    text = '{"stars":[[0.0,0.0],[3.141592653589793,0.0]]}'
    c = parse_constellation(text)
    assert c.label.twoS == 2
    assert c.infinity_count == 1
    assert np.allclose(c.finite_roots, [0.0])


def test_constellation_rejects_malformed():
    with pytest.raises(ValueError):
        parse_constellation('{"twoS":2,"roots":[[0,0]]}')  # count mismatch
    with pytest.raises(ValueError):
        parse_constellation('{"twoS":2,"roots":[[0,0],[1,0]],"infinity_count":true}')
    with pytest.raises(ValueError):
        parse_constellation('{"twoS":1,"stars":[[0.1]]}')
    with pytest.raises(ValueError, match="'twoS' must be an integer"):
        parse_constellation('{"twoS":1.0,"stars":[[0.1,0.2]]}')
    # Each angle is a finite JSON number: not null, a list, a bool or a string.
    for star in ("[null,0.5]", "[[1],0.5]", "[true,0.5]", '["0.5",0.5]', "[0.5,1e999]"):
        with pytest.raises(ValueError):
            parse_constellation(f'{{"stars":[{star}]}}')


def test_integers_past_the_float_range_are_rejected():
    huge = "1" + "0" * 400
    with pytest.raises(ValueError, match="out of the float range"):
        parse_state(f'{{"twoS":1,"amplitudes":[{huge},[0,1]]}}')
    with pytest.raises(ValueError, match="out of the float range"):
        parse_constellation(f'{{"twoS":1,"roots":[[{huge},0]]}}')
    with pytest.raises(ValueError, match="out of the float range"):
        parse_constellation(f'{{"stars":[[0.5,{huge}]]}}')
    with pytest.raises(ValueError, match="out of the float range"):
        parse_hamiltonian(f'{{"builtin":"Sz","coupling":{huge},"twoS":2}}')


# -- multipole spectra ---------------------------------------------------------------


def test_multipole_emission_structure(rng):
    st = random_state(rng, 3)
    spec = multipoles(st)
    obj = json.loads(emit_multipoles(spec))
    assert obj["twoS"] == 3
    assert len(obj["rho"]) == 16
    assert len(obj["w"]) == 4
    assert len(obj["A"]) == 4
    assert obj["A"][0] == 0.0
    assert obj["A"][3] == pytest.approx(spec.A[3])
    rec = {(d["K"], d["q"]): d["re"] + 1j * d["im"] for d in obj["rho"]}
    for k, q, v in spec.items():
        assert rec[(k, q)] == pytest.approx(v, abs=1e-16)


def test_multipole_emission_truncation(rng):
    spec = multipoles(random_state(rng, 4))
    obj = json.loads(emit_multipoles(spec, upto=2))
    assert len(obj["rho"]) == 9
    assert len(obj["w"]) == 3
    assert len(obj["A"]) == 3
    with pytest.raises(ValueError):
        emit_multipoles(spec, upto=5)
    with pytest.raises(ValueError):
        emit_multipoles(spec, upto=-1)


# -- Husimi grid CSV -----------------------------------------------------------------


def test_qgrid_csv_shape(rng):
    grid = q_grid(random_state(rng, 2), 4, 5)
    text = emit_qgrid(grid)
    lines = text.split("\n")
    assert lines[0] == "theta,phi,Q"
    assert len(lines) == 1 + 4 * 5
    first = lines[1].split(",")
    assert float(first[0]) == pytest.approx(grid.theta_nodes[0])
    assert float(first[1]) == pytest.approx(grid.phi_nodes[0])
    assert float(first[2]) == pytest.approx(grid.values[0, 0])
    # theta-major ordering: the second row advances phi, not theta
    second = lines[2].split(",")
    assert float(second[0]) == pytest.approx(grid.theta_nodes[0])
    assert float(second[1]) == pytest.approx(grid.phi_nodes[1])


def test_qgrid_csv_matches_one_format_per_cell(rng):
    # Byte for byte the repr of every cell's theta, phi and Q on its own, at
    # the CLI's default grid.
    grid = q_grid(random_state(rng, 7), 64, 128)
    want = ["theta,phi,Q"]
    for i, theta in enumerate(grid.theta_nodes):
        for j, phi in enumerate(grid.phi_nodes):
            want.append(",".join(repr(float(x)) for x in (theta, phi, grid.values[i, j])))
    assert emit_qgrid(grid) == "\n".join(want)


# -- kings ---------------------------------------------------------------------------


def test_kings_emission_fields():
    result = minimize(2, SearchConfig(M=1, restarts=4))
    obj = json.loads(emit_kings(result))
    assert obj["twoS"] == 2
    assert obj["M"] == 1
    assert obj["objective"] == pytest.approx(result.objective)
    assert obj["unpolarized_order"] == result.unpolarized_order
    assert obj["restarts_converged"] == result.restarts_converged
    inner = obj["constellation"]
    assert inner["twoS"] == 2
    assert len(inner["roots"]) + inner["infinity_count"] == 2
    assert "history" not in obj


# -- Hamiltonians ---------------------------------------------------------------------


def test_parse_hamiltonian_matrix(rng):
    g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    m = (g + g.conj().T) / 2.0
    rows = ",".join(
        "[" + ",".join(f"[{float(v.real)!r},{float(v.imag)!r}]" for v in row) + "]"
        for row in m
    )
    h = parse_hamiltonian(f'{{"twoS":2,"matrix":[{rows}]}}')
    assert np.allclose(h.matrix, m, atol=1e-15)


def test_parse_hamiltonian_builtin():
    h = parse_hamiltonian('{"builtin":"Sz","coupling":2.5,"twoS":3}')
    _, _, sz = mj.spin_matrices(3)
    assert np.allclose(h.matrix, 2.5 * sz)
    # label can supply the dimension instead
    h2 = parse_hamiltonian('{"builtin":"Sz","coupling":2.5}', label=3)
    assert np.allclose(h2.matrix, h.matrix)


@pytest.mark.parametrize("coupling", ["[1]", "null", "true"])
def test_parse_hamiltonian_rejects_non_number_coupling(coupling):
    with pytest.raises(ValueError, match="coupling"):
        parse_hamiltonian(f'{{"builtin":"Sz","coupling":{coupling},"twoS":2}}')


def test_parse_hamiltonian_errors(rng):
    with pytest.raises(ValueError):
        parse_hamiltonian('{"builtin":"Sz"}')  # no dimension anywhere
    with pytest.raises(LabelMismatch):
        parse_hamiltonian('{"builtin":"Sz","twoS":2}', label=4)
    with pytest.raises(LabelMismatch):
        parse_hamiltonian('{"twoS":2,"matrix":[[0,0,0],[0,0,0],[0,0,0]]}', label=3)
    with pytest.raises(ValueError):
        parse_hamiltonian('{"twoS":2,"matrix":[[0,0],[0,0]]}')  # wrong size
    with pytest.raises(ValueError):
        parse_hamiltonian('{"twoS":1,"matrix":[[0,[1,0]],[[2,0],0]]}')  # not Hermitian
    with pytest.raises(ValueError, match=r"^matrix must be 2x2$"):
        parse_hamiltonian('{"twoS": 1, "matrix": [1, 2]}')  # rows not lists


# -- trajectories -----------------------------------------------------------------------


def test_trajectory_jsonl(rng):
    st = random_state(rng, 2)
    traj = evolve(st, builtin_hamiltonian(2, "Sz", 1.0), 0.05)
    text = emit_trajectory(traj)
    lines = text.split("\n")
    assert len(lines) == len(traj.times)
    for line, t, snap in zip(lines, traj.times, traj.snapshots):
        obj = json.loads(line)
        assert obj["t"] == pytest.approx(t)
        assert obj["infinity_count"] == snap.infinity_count
        assert len(obj["roots"]) == len(snap.finite_roots)


# -- strict JSON, bit for bit -------------------------------------------------------------


def _strict(text):
    def reject(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=reject)


def _bits(values):
    """The bytes of a float or complex array, or of a list of floats or of
    [re, im] pairs; a parsed integer makes an integer array, which differs."""
    return np.array(values).tobytes()


def test_every_payload_is_strict_json_and_keeps_every_bit(rng):
    # Each input has -0.0 parts, which a writer spelling them "-0" loses:
    # json reads that as the integer 0.
    st = mj.SpinState(3, [1.0, complex(0.5, -0.0), complex(-0.0, 0.25), -0.0])
    obj = _strict(emit_state(st))
    assert _bits(obj["amplitudes"]) == _bits(st.amplitudes)
    assert parse_state(emit_state(st)).amplitudes.tobytes() == st.amplitudes.tobytes()

    c = mj.Constellation(4, [complex(-0.0, 0.5), complex(1.5, -0.0), -0.0], 1)
    obj = _strict(emit_constellation(c))
    assert _bits(obj["roots"]) == _bits(c.finite_roots)
    assert parse_constellation(emit_constellation(c)).finite_roots.tobytes() == _bits(c.finite_roots)
    stars = _strict(emit_constellation(c, angles=True))["stars"]
    assert _bits(stars) == _bits([[p.theta, p.phi] for p in c.points()])

    spec = multipoles(st)
    obj = _strict(emit_multipoles(spec))
    assert _bits([[d["re"], d["im"]] for d in obj["rho"]]) == _bits(
        [[v.real, v.imag] for _, _, v in spec.items()]
    )
    assert _bits(obj["w"]) == _bits(spec.w)
    assert _bits(obj["A"]) == _bits(spec.A)

    result = replace(minimize(4, SearchConfig(M=1, restarts=2)), constellation=c, objective=-0.0)
    obj = _strict(emit_kings(result))
    assert _bits([obj["objective"]]) == _bits([-0.0])
    assert _bits(obj["constellation"]["roots"]) == _bits(c.finite_roots)

    traj = evolve(random_state(rng, 4), builtin_hamiltonian(4, "Sz"), 0.05)
    traj = replace(traj, snapshots=(c,) + traj.snapshots[1:])
    lines = emit_trajectory(traj).split("\n")
    assert len(lines) == len(traj.times)
    for line, t, snap in zip(lines, traj.times, traj.snapshots):
        obj = _strict(line)
        assert sorted(obj) == ["infinity_count", "roots", "t"]
        assert _bits([obj["t"]]) == _bits([t])
        assert _bits(obj["roots"]) == _bits(snap.finite_roots)
        assert obj["infinity_count"] == snap.infinity_count


def test_non_finite_values_are_not_written():
    spec = multipoles(mj.coherent_state(2, 0.3))
    bad = replace(spec, w=np.array([np.nan, 0.0, 0.0]))
    with pytest.raises(ValueError):
        emit_multipoles(bad)
