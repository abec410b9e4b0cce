"""End-to-end command-line checks via click's test runner."""

import json
import runpy
import sys
from dataclasses import replace

import numpy as np
import pytest
from click.testing import CliRunner

import majorana as mj
from majorana import kings, rootfinding, stellar
from majorana.cli import main
from majorana.kings import SearchConfig, minimize
from majorana.serialize import (
    emit_constellation,
    emit_kings,
    emit_state,
    parse_constellation,
    parse_state,
)


@pytest.fixture
def runner():
    return CliRunner()


def _write_state(tmp_path, state, name="state.json"):
    path = tmp_path / name
    path.write_text(emit_state(state))
    return str(path)


def test_stars_matches_library_byte_for_byte(runner, tmp_path, rng):
    st = mj.SpinState(3, rng.normal(size=4) + 1j * rng.normal(size=4))
    path = _write_state(tmp_path, st)
    result = runner.invoke(main, ["stars", path])
    assert result.exit_code == 0, result.output
    want = emit_constellation(mj.constellation_from_state(st)) + "\n"
    assert result.output == want


@pytest.mark.parametrize("module", ["majorana", "majorana.cli"])
def test_module_entry_points_run_the_command(module, monkeypatch, capsys, tmp_path, rng):
    # python -m majorana and python -m majorana.cli, run in this process so
    # that tools/untraced_statements.py sees the entry statements run.
    st = mj.SpinState(3, rng.normal(size=4) + 1j * rng.normal(size=4))
    path = _write_state(tmp_path, st)
    monkeypatch.setattr(sys, "argv", ["majorana", "stars", path])
    if module == "majorana.cli":
        # runpy warns when the module it runs as __main__ is already imported.
        monkeypatch.delitem(sys.modules, module)
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_module(module, run_name="__main__")
    assert exit_info.value.code == 0
    assert capsys.readouterr().out == emit_constellation(mj.constellation_from_state(st)) + "\n"


def test_stars_state_round_trip(runner, tmp_path, rng):
    st = mj.SpinState(4, rng.normal(size=5) + 1j * rng.normal(size=5))
    path = _write_state(tmp_path, st)
    stars_out = runner.invoke(main, ["stars", path])
    assert stars_out.exit_code == 0
    cpath = tmp_path / "c.json"
    cpath.write_text(stars_out.output)
    state_out = runner.invoke(main, ["state", str(cpath)])
    assert state_out.exit_code == 0
    back = parse_state(state_out.output)
    assert abs(np.vdot(back.amplitudes, st.amplitudes)) >= 1.0 - 1e-10


def test_state_of_far_stars_whose_product_overflows(runner, tmp_path):
    # Two stars whose product is beyond the largest double, and stars whose
    # modulus, or the sum of whose parts, is.
    for roots in ([1e160, 2e160, 0.5, 1j], [1.5e308 + 1.5e308j], [9e307 + 9e307j],
                  [1e308 + 1e308j]):
        c = mj.Constellation(len(roots), roots)
        path = tmp_path / "c.json"
        path.write_text(emit_constellation(c))
        result = runner.invoke(main, ["state", str(path)])
        assert result.exit_code == 0, result.output
        assert result.output == emit_state(mj.state_from_constellation(c)) + "\n"


def test_stars_angles_flag(runner, tmp_path):
    path = _write_state(tmp_path, mj.basis_state(2, -2))
    result = runner.invoke(main, ["stars", path, "--angles"])
    assert result.exit_code == 0
    obj = json.loads(result.output)
    assert "stars" in obj
    assert len(obj["stars"]) == 2
    c = parse_constellation(result.output)
    assert c.infinity_count == 2  # |S,-S> sits entirely at the pole


def test_stdin_dash(runner, rng):
    st = mj.SpinState(2, rng.normal(size=3) + 1j * rng.normal(size=3))
    result = runner.invoke(main, ["stars", "-"], input=emit_state(st))
    assert result.exit_code == 0
    want = emit_constellation(mj.constellation_from_state(st)) + "\n"
    assert result.output == want


def test_output_flag_writes_file(runner, tmp_path, rng):
    st = mj.SpinState(2, rng.normal(size=3) + 1j * rng.normal(size=3))
    path = _write_state(tmp_path, st)
    out = tmp_path / "result.json"
    result = runner.invoke(main, ["--output", str(out), "stars", path])
    assert result.exit_code == 0
    assert result.output == ""
    want = emit_constellation(mj.constellation_from_state(st)) + "\n"
    assert out.read_text() == want


def test_truncated_json_exits_2(runner, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"twoS":2,"amplitudes":[[1,0],[0,')
    result = runner.invoke(main, ["stars", str(path)])
    assert result.exit_code == 2


def test_wrong_amplitude_count_exits_2(runner, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"twoS":2,"amplitudes":[[1,0]]}')
    result = runner.invoke(main, ["stars", str(path)])
    assert result.exit_code == 2


def test_missing_file_exits_4(runner, tmp_path):
    result = runner.invoke(main, ["stars", str(tmp_path / "absent.json")])
    assert result.exit_code == 4


def test_roots_missing_the_tolerance_exit_3(monkeypatch, runner, tmp_path, rng):
    st = mj.SpinState(4, rng.normal(size=5) + 1j * rng.normal(size=5))
    path = _write_state(tmp_path, st)
    monkeypatch.setattr(rootfinding, "TOL", 1e-300)
    result = runner.invoke(main, ["stars", path])
    assert result.exit_code == 3
    assert result.stdout == ""
    assert result.stderr.startswith("error: state 0 (2S = 4): root residual ")
    assert result.stderr.endswith(" exceeds tolerance 1.000e-300 for degree 4\n")


def test_the_contract_is_not_an_option(runner):
    # The residual contract is fixed: --tol is an unknown option, exit 2.
    result = runner.invoke(main, ["--tol", "1e-3", "stars", "f.json"])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "No such option" in result.stderr and "--tol" in result.stderr
    assert "--tol" not in runner.invoke(main, ["--help"]).output


def test_qgrid_csv(runner, tmp_path, rng):
    st = mj.SpinState(2, rng.normal(size=3) + 1j * rng.normal(size=3))
    path = _write_state(tmp_path, st)
    result = runner.invoke(main, ["qgrid", path, "--ntheta", "6", "--nphi", "7"])
    assert result.exit_code == 0
    lines = result.output.strip().split("\n")
    assert lines[0] == "theta,phi,Q"
    assert len(lines) == 1 + 6 * 7
    result = runner.invoke(main, ["qgrid", path, "--ntheta", "1"])
    assert result.exit_code == 2


def test_qgrid_refuses_a_huge_grid(runner, tmp_path, rng, monkeypatch):
    # Exit 2, the invalid-input code, before leggauss or any grid array runs.
    path = _write_state(tmp_path, mj.SpinState(2, rng.normal(size=3)))

    def no_nodes(n):
        raise AssertionError(f"leggauss({n}) ran")

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", no_nodes)
    for option, value in (("--ntheta", "1000000"), ("--nphi", "1000000000")):
        result = runner.invoke(main, ["qgrid", path, option, value])
        assert result.exit_code == 2, result.output
        assert result.stdout == ""
        assert "must be an integer in 2..1024" in result.stderr


def test_multipoles_upto(runner, tmp_path, rng):
    st = mj.SpinState(4, rng.normal(size=5) + 1j * rng.normal(size=5))
    path = _write_state(tmp_path, st)
    result = runner.invoke(main, ["multipoles", path, "--upto", "2"])
    assert result.exit_code == 0
    obj = json.loads(result.output)
    assert obj["twoS"] == 4
    assert len(obj["w"]) == 3
    assert len(obj["rho"]) == 9


def test_kings_matches_library(runner):
    result = runner.invoke(main, ["kings", "--twoS", "2", "--M", "1", "--restarts", "6"])
    assert result.exit_code == 0, result.output
    want = emit_kings(minimize(2, SearchConfig(M=1, restarts=6, seed=0))) + "\n"
    assert result.output == want
    obj = json.loads(result.output)
    assert obj["unpolarized_order"] == 1
    # the antipodal pair in canonical gauge: one root at 0, one at the pole
    assert obj["constellation"]["roots"] == [[0, 0]]
    assert obj["constellation"]["infinity_count"] == 1


def test_companion_that_overflows_exits_3(runner, tmp_path, monkeypatch):
    # The state's stars are solved in the rotated frame; stars exits 3 only
    # when both frames miss, here with a second frame that is the first.
    state = mj.SpinState(2, [1e-320, 1, 1e-320])
    path = _write_state(tmp_path, state)
    result = runner.invoke(main, ["stars", path])
    assert result.exit_code == 0, result.output
    assert result.stdout == emit_constellation(mj.constellation_from_state(state)) + "\n"
    monkeypatch.setattr(stellar, "rotate", lambda state, theta, phi: state)
    result = runner.invoke(main, ["stars", path])
    assert result.exit_code == 3
    assert result.stdout == ""
    assert result.stderr == "error: state 0 (2S = 2): companion matrix overflows for degree 2\n"


def test_kings_seed_changes_draws_not_result(runner):
    a = runner.invoke(main, ["--seed", "5", "kings", "--twoS", "4", "--M", "2",
                             "--restarts", "4"])
    b = runner.invoke(main, ["--seed", "5", "kings", "--twoS", "4", "--M", "2",
                             "--restarts", "4"])
    assert a.exit_code == 0 and b.exit_code == 0
    assert a.output == b.output  # same seed, byte-identical


def test_kings_without_a_converged_restart_exits_3(runner, monkeypatch):
    def unconverged(two_s, config):
        return replace(minimize(two_s, config), restarts_converged=0)

    monkeypatch.setattr(kings, "minimize", unconverged)
    result = runner.invoke(main, ["kings", "--twoS", "2", "--M", "1", "--restarts", "2"])
    assert result.exit_code == 3
    # The search's result is still written; only the exit code marks it.
    want = emit_kings(unconverged(2, SearchConfig(M=1, restarts=2, seed=0))) + "\n"
    assert result.stdout == want
    assert result.stderr == "error: no restart converged\n"


def test_kings_invalid_order_exits_2(runner):
    result = runner.invoke(main, ["kings", "--twoS", "2", "--M", "0"])
    assert result.exit_code == 2
    result = runner.invoke(main, ["kings", "--twoS", "2", "--M", "3"])
    assert result.exit_code == 2


def test_evolve_jsonl(runner, tmp_path, rng):
    st = mj.SpinState(2, rng.normal(size=3) + 1j * rng.normal(size=3))
    spath = _write_state(tmp_path, st)
    hpath = tmp_path / "h.json"
    hpath.write_text('{"builtin":"Sz","coupling":1.0}')
    result = runner.invoke(main, ["evolve", spath, str(hpath), "--t", "0.05"])
    assert result.exit_code == 0, result.output
    lines = result.output.strip().split("\n")
    first = json.loads(lines[0])
    last = json.loads(lines[-1])
    assert first["t"] == 0.0
    assert last["t"] == pytest.approx(0.05)
    assert all(sorted(json.loads(line)) == ["infinity_count", "roots", "t"] for line in lines)


def test_evolve_time_zero_and_negative(runner, tmp_path, rng):
    st = mj.SpinState(2, rng.normal(size=3) + 1j * rng.normal(size=3))
    spath = _write_state(tmp_path, st)
    hpath = tmp_path / "h.json"
    hpath.write_text('{"builtin":"Sz"}')
    result = runner.invoke(main, ["evolve", spath, str(hpath), "--t", "0"])
    assert result.exit_code == 0
    assert len(result.output.strip().split("\n")) == 1
    result = runner.invoke(main, ["evolve", spath, str(hpath), "--t", "-1"])
    assert result.exit_code == 2


def test_evolve_label_mismatch_exits_2(runner, tmp_path, rng):
    st = mj.SpinState(2, rng.normal(size=3) + 1j * rng.normal(size=3))
    spath = _write_state(tmp_path, st)
    hpath = tmp_path / "h.json"
    hpath.write_text('{"twoS":4,"matrix":' + json.dumps(np.eye(5).tolist()) + "}")
    result = runner.invoke(main, ["evolve", spath, str(hpath), "--t", "0.1"])
    assert result.exit_code == 2


@pytest.mark.parametrize("coupling", ["[1]", "null", "true", "1e999", "-1e999", "NaN"])
def test_evolve_non_number_coupling_exits_2(runner, tmp_path, rng, coupling):
    st = mj.SpinState(2, rng.normal(size=3) + 1j * rng.normal(size=3))
    spath = _write_state(tmp_path, st)
    hpath = tmp_path / "h.json"
    hpath.write_text(f'{{"builtin":"Sz","coupling":{coupling}}}')
    result = runner.invoke(main, ["evolve", spath, str(hpath), "--t", "0.05"])
    assert result.exit_code == 2


@pytest.mark.parametrize(
    "payload",
    [
        '{"stars": [[null, 0.5]]}',
        '{"stars": [[[1], 0.5]]}',
        '{"stars": [[true, 0.5]]}',
        '{"stars": [["0.5", 0.5]]}',
        '{"stars": [[0.5, 1e999]]}',
    ],
)
def test_state_malformed_star_angle_exits_2(runner, tmp_path, payload):
    path = tmp_path / "c.json"
    path.write_text(payload)
    result = runner.invoke(main, ["state", str(path)])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)  # not an escaped TypeError
    assert result.stdout == ""
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1


def test_evolve_matrix_row_not_a_list_exits_2(runner, tmp_path):
    spath = _write_state(tmp_path, mj.basis_state(1, 1))
    hpath = tmp_path / "h.json"
    hpath.write_text('{"twoS": 1, "matrix": [1, 2]}')
    result = runner.invoke(main, ["evolve", spath, str(hpath), "--t", "0.1"])
    assert result.exit_code == 2
    assert result.stderr == "error: matrix must be 2x2\n"


def test_evolve_under_a_hamiltonian_near_the_float_limit(runner, tmp_path):
    # (m + m^dag) / 2 of this finite Hermitian matrix overflows; the
    # suite makes a RuntimeWarning an error.
    spath = _write_state(tmp_path, mj.SpinState(1, [0.6, 0.8]))
    hpath = tmp_path / "h.json"
    hpath.write_text('{"twoS": 1, "matrix": [[1e308, 0], [0, -1e308]]}')
    result = runner.invoke(main, ["evolve", spath, str(hpath), "--t", "1", "--dtmax", "0.5"])
    assert result.exit_code == 0, result.output
    assert [json.loads(line)["t"] for line in result.stdout.splitlines()] == [0.0, 0.5, 1.0]


def test_evolve_under_a_hamiltonian_whose_spectrum_overflows_exits_2(runner, tmp_path):
    # The entries are finite and Hermitian, but one eigenvalue is 3.4e308;
    # the suite makes a RuntimeWarning an error, so the refusal comes first.
    spath = _write_state(tmp_path, mj.SpinState(1, [0.6, 0.8]))
    hpath = tmp_path / "h.json"
    hpath.write_text('{"twoS": 1, "matrix": [[1.7e308, 1.7e308], [1.7e308, 1.7e308]]}')
    result = runner.invoke(main, ["evolve", spath, str(hpath), "--t", "1"])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == "error: matrix spectrum must be finite\n"


@pytest.mark.parametrize("dtmax", ["1e-320", "nan", "1e-12"])
def test_evolve_unbuildable_dtmax_exits_2(runner, tmp_path, rng, dtmax):
    st = mj.SpinState(2, rng.normal(size=3) + 1j * rng.normal(size=3))
    spath = _write_state(tmp_path, st)
    hpath = tmp_path / "h.json"
    hpath.write_text('{"builtin":"Sz"}')
    result = runner.invoke(main, ["evolve", spath, str(hpath), "--t", "1", "--dtmax", dtmax])
    assert result.exit_code == 2
