import json

import numpy as np
import pytest

from polyosc import krawtchouk as kr
from polyosc.cli import _krawtchouk_point, _parse_sweep, main


def run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


class TestSpectrumCommand:
    def test_default_chain_passes(self, capsys):
        rc, out, _ = run(capsys, ["spectrum", "--format", "json"])
        assert rc == 0
        payload = json.loads(out)
        assert payload["pass"] is True
        assert payload["chain"] == "boson"
        assert payload["max_deviation"] < 1e-10

    def test_krawtchouk_chain(self, capsys):
        rc, out, _ = run(capsys, [
            "spectrum", "--chain", "krawtchouk", "--p", "0.3", "--N", "9",
            "--format", "json",
        ])
        assert rc == 0
        payload = json.loads(out)
        assert payload["dim"] == 10
        got = payload["paired_by_number_state"]
        want = payload["expected_diagonal"]
        assert np.allclose(got, want, atol=1e-10)

    def test_impossible_tolerance_fails_with_one(self, capsys):
        rc, out, _ = run(capsys, [
            "spectrum", "--tol", "1e-30", "--format", "json",
        ])
        assert rc == 1
        assert json.loads(out)["pass"] is False

    def test_diagonal_chain_is_a_usage_error(self, capsys, tmp_path):
        f = tmp_path / "diag.json"
        f.write_text(json.dumps({"b": [1.0, 1.0], "a": [0.5, 0.5]}))
        rc, _, err = run(capsys, ["spectrum", "--chain", str(f)])
        assert rc == 2
        assert "error:" in err


class TestDeterminism:
    def test_json_is_byte_stable(self, capsys):
        argv = ["krawtchouk", "--p", "0.37", "--N", "11", "--format", "json"]
        rc1, out1, _ = run(capsys, argv)
        rc2, out2, _ = run(capsys, argv)
        assert (rc1, rc2) == (0, 0)
        assert out1 == out2

    def test_sweep_order_and_stability(self, capsys):
        argv = ["krawtchouk", "--N", "8", "--sweep", "p=0.1:0.9:0.2",
                "--format", "json"]
        rc, out1, _ = run(capsys, argv)
        assert rc == 0
        payload = json.loads(out1)
        assert [r["p"] for r in payload["results"]] == [0.1, 0.3, 0.5, 0.7, 0.9]
        _, out2, _ = run(capsys, argv)
        assert out1 == out2

    def test_parse_sweep(self):
        var, vals = _parse_sweep("p=0.1:0.5:0.2")
        assert var == "p"
        assert vals == [0.1, 0.3, 0.5]
        with pytest.raises(ValueError):
            _parse_sweep("q=0.1:0.5:0.2")
        with pytest.raises(ValueError):
            _parse_sweep("p=0.1:0.5")
        with pytest.raises(ValueError):
            _parse_sweep("p=0.5:0.1:-0.2")


class TestKrawtchoukSpectra:
    @pytest.mark.parametrize("p", (0.1, 0.4123457, 0.9))
    @pytest.mark.parametrize("N", (1, 2, 5, 24, 96))
    def test_banded_spectra_equal_dense_eigvalsh(self, p, N):
        row = _krawtchouk_point(p, N, 1e-8)
        osc = kr.build_lattice_oscillator(p, N)
        lattice = np.linalg.eigvalsh(osc.hamiltonian)
        grid = np.linalg.eigvalsh(kr.grid_hamiltonian(p, N))
        assert row["spectrum_deviation"] == float(
            np.max(np.abs(lattice - np.sort(osc.expected_spectrum())))
        )
        assert row["grid_spectrum_deviation"] == float(
            np.max(np.abs(grid - (np.arange(N + 1) + 0.5)))
        )

    def test_off_diagonal_lattice_hamiltonian_fails(self, capsys, monkeypatch):
        def broken(self):
            H = self.ops.hamiltonian / self._unit**2
            H[0, 1] = H[1, 0] = 1e-3
            return H

        monkeypatch.setattr(kr.LatticeOscillator, "hamiltonian", property(broken))
        rc, out, err = run(capsys, ["krawtchouk", "--p", "0.4", "--N", "6"])
        assert rc == 1
        assert out == ""
        assert "not diagonal" in err


class TestCoherentCommand:
    def test_three_routes_agree(self, capsys):
        rc, out, _ = run(capsys, [
            "coherent", "--chain", "krawtchouk", "--p", "0.4", "--N", "6",
            "--z", "1.0", "0.5", "--format", "json",
        ])
        assert rc == 0
        payload = json.loads(out)
        assert payload["worst_overlap_deficit"] < 1e-10
        assert set(payload["amplitudes"]) == {"exponential", "series", "closed_form"}
        amp0 = payload["amplitudes"]["exponential"][0]
        assert set(amp0) == {"re", "im"}

    def test_nan_route_fails(self, capsys, monkeypatch):
        import polyosc.coherent as co

        monkeypatch.setattr(co, "coherent_closed_form",
                            lambda chain, z, dim=None: np.full(dim, np.nan + 0j))
        rc, out, _ = run(capsys, [
            "coherent", "--chain", "boson", "--dim", "6", "--z", "1", "0",
            "--format", "json",
        ])
        assert rc == 1
        assert json.loads(out)["pass"] is False

    def test_numerical_failure_exits_one_without_traceback(self, capsys):
        # the series route refuses |z| = 6 on this chain (its rounding bound passes 1e-8)
        rc, out, err = run(capsys, [
            "coherent", "--chain", "krawtchouk", "--p", "0.3", "--N", "80",
            "--z", "6", "0",
        ])
        assert rc == 1
        assert out == ""
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_open_chain_needs_level_info(self, capsys):
        rc, _, err = run(capsys, ["coherent", "--z", "1.0", "0.0"])
        assert rc == 2
        assert "error:" in err


class TestMomentsCommand:
    def test_round_trip(self, capsys):
        rc, out, _ = run(capsys, [
            "moments", "--chain", "krawtchouk", "--p", "0.5", "--N", "7",
            "--count", "5", "--format", "json",
        ])
        assert rc == 0
        payload = json.loads(out)
        assert payload["round_trip_relative_error"] < 1e-9

    def test_finite_support_is_not_an_error(self, capsys):
        rc, out, _ = run(capsys, [
            "moments", "--moments", "1,1,1,1", "--format", "json",
        ])
        assert rc == 0
        payload = json.loads(out)
        assert payload["finite_support"] is True
        assert payload["supported_depth"] == 1
        assert payload["coefficients"] == [pytest.approx(1.0)]


    def test_non_finite_moment_is_usage_error(self, capsys):
        rc, out, err = run(capsys, ["moments", "--moments", "1,nan,3"])
        assert rc == 2
        assert out == ""
        assert "finite" in err

    def test_count_past_chain_depth_is_usage_error(self, capsys):
        rc, _, err = run(capsys, [
            "moments", "--chain", "krawtchouk", "--p", "0.3", "--N", "4",
            "--count", "8",
        ])
        assert rc == 2
        assert "exceeds the chain's depth 4" in err


class TestRootsCommand:
    def test_truncated_default_degree(self, capsys):
        rc, out, _ = run(capsys, [
            "roots", "--chain", "krawtchouk", "--p", "0.5", "--N", "4",
            "--format", "json",
        ])
        assert rc == 0
        payload = json.loads(out)
        assert payload["degree"] == 5
        assert len(payload["roots"]) == 5
        # symmetric chain: roots come in +- pairs
        assert payload["roots"] == pytest.approx(
            [-r for r in reversed(payload["roots"])], abs=1e-9
        )

    def test_open_chain_without_degree_is_usage_error(self, capsys):
        rc, _, err = run(capsys, ["roots", "--chain", "boson"])
        assert rc == 2
        assert "error:" in err

    def test_degree_past_chain_depth_is_usage_error(self, capsys):
        rc, _, err = run(capsys, [
            "roots", "--chain", "boson", "--depth", "5", "--degree", "40",
        ])
        assert rc == 2
        assert "degree 40 needs b_0..b_38, past the chain's depth 5" in err

    @pytest.mark.parametrize("args", [
        ["--chain", "boson", "--depth", "60", "--degree", "40"],
        ["--chain", "boson", "--depth", "200", "--degree", "150"],
        ["--chain", "krawtchouk", "--p", "0.3", "--N", "24"],
        ["--chain", "krawtchouk", "--p", "0.3", "--N", "60"],
        ["--chain", "krawtchouk", "--p", "0.3", "--N", "100"],
        ["--chain", "krawtchouk", "--p", "0.3", "--N", "400"],
    ])
    def test_deep_chains_pass(self, capsys, args):
        rc, out, err = run(capsys, ["roots", *args, "--format", "json"])
        assert rc == 0, err
        assert json.loads(out)["pass"] is True


class TestFormatsAndFiles:
    def test_csv_format(self, capsys):
        rc, out, _ = run(capsys, [
            "spectrum", "--chain", "krawtchouk", "--p", "0.5", "--N", "3",
            "--format", "csv",
        ])
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "key,value"
        assert any(line.startswith("command,spectrum") for line in lines)
        assert any(line.startswith("eigenvalues[0],") for line in lines)

    def test_text_format(self, capsys):
        rc, out, _ = run(capsys, [
            "spectrum", "--chain", "krawtchouk", "--p", "0.5", "--N", "3",
        ])
        assert rc == 0
        assert "pass: True" in out

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        rc, out, _ = run(capsys, [
            "spectrum", "--format", "json", "--out", str(target),
        ])
        assert rc == 0
        assert out == ""
        assert json.loads(target.read_text())["pass"] is True

    def test_chain_from_text_file(self, capsys, tmp_path):
        f = tmp_path / "chain.txt"
        f.write_text("0.7 1.2, 0.9\n")
        rc, out, _ = run(capsys, [
            "spectrum", "--chain", str(f), "--format", "json",
        ])
        assert rc == 0
        assert json.loads(out)["dim"] == 4

    def test_chain_from_json_file(self, capsys, tmp_path):
        f = tmp_path / "chain.json"
        f.write_text(json.dumps({"b": [1.0, 0.5, 0.0], "label": "three-level"}))
        rc, out, _ = run(capsys, ["spectrum", "--chain", str(f), "--format", "json"])
        assert rc == 0
        payload = json.loads(out)
        assert payload["chain"] == "three-level"
        assert payload["dim"] == 3

    def test_chain_with_diagonal_is_usage_error(self, capsys, tmp_path):
        f = tmp_path / "chain.json"
        f.write_text(json.dumps({"b": [1.0, 0.5, 0.0], "a": [0.0, 0.2, 0.0]}))
        rc, _, err = run(capsys, ["spectrum", "--chain", str(f)])
        assert rc == 2
        assert "zero-diagonal" in err

    def test_non_finite_chain_file(self, capsys, tmp_path):
        f = tmp_path / "chain.txt"
        f.write_text("0.7 nan 0.9\n")
        rc, _, err = run(capsys, ["spectrum", "--chain", str(f)])
        assert rc == 2
        assert "finite" in err

    def test_missing_chain_file(self, capsys):
        rc, _, err = run(capsys, ["spectrum", "--chain", "/no/such/file.json"])
        assert rc == 2
        assert "error:" in err


class TestEnvironmentAndUsage:
    def test_tol_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("POLYOSC_TOL", "1e-30")
        rc, _, _ = run(capsys, ["spectrum", "--format", "json"])
        assert rc == 1

    def test_bad_env_value_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("POLYOSC_TOL", "not-a-number")
        rc, out, err = run(capsys, ["spectrum", "--format", "json"])
        assert rc == 2
        assert out == ""
        assert err.startswith("error: POLYOSC_TOL")

    @pytest.mark.parametrize("value", ("inf", "nan", "0", "-1e-8"))
    def test_tolerance_must_be_positive_finite(self, capsys, monkeypatch, value):
        # an infinite tolerance would pass every check
        monkeypatch.setenv("POLYOSC_TOL", value)
        rc, _, err = run(capsys, ["spectrum"])
        assert rc == 2
        assert "positive finite" in err
        monkeypatch.delenv("POLYOSC_TOL")
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "--tol", value])
        assert exc.value.code == 2

    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "polyosc" in capsys.readouterr().out

    def test_unknown_chain_name(self, capsys):
        rc, _, err = run(capsys, ["spectrum", "--chain", "mystery-chain"])
        assert rc == 2
        assert "unknown chain" in err


class TestVerifyCommand:
    def test_json_report(self, capsys):
        rc, out, _ = run(capsys, ["verify", "--format", "json"])
        assert rc == 0
        payload = json.loads(out)
        assert payload["pass"] is True
        assert len(payload["criteria"]) == 10
        assert all(c["pass"] for c in payload["criteria"])

    def test_text_report(self, capsys):
        rc, out, _ = run(capsys, ["verify"])
        assert rc == 0
        assert "10/10 criteria passed" in out
