"""Command-line interface: exit codes, output formats, determinism."""

from __future__ import annotations

import json
import subprocess
import sys

import numpy as np
import pytest

import corpus
import polyserend.cli as cli
from polyserend import ConvergenceError, Polygon
from polyserend.linalg import SolveReport


def write_polygon(tmp_path, poly, name="poly.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"vertices": poly.vertices.tolist()}))
    return path


def run(capsys, argv):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestVerify:
    def test_unit_square_passes(self, tmp_path, capsys):
        path = write_polygon(tmp_path, corpus.unit_square())
        rc, out, err = run(capsys, ["verify", str(path), "--json"])
        assert rc == cli.EXIT_OK
        payload = json.loads(out)
        assert payload["passed"] is True
        assert payload["n"] == 4
        assert payload["strategy"] == "quadrilateral"
        assert payload["constraint_max_residual"] <= 1e-14
        assert payload["lagrange_max_deviation"] <= 1e-10
        assert payload["reproduction_max_residual"] <= 1e-9

    def test_text_output_reports_pass(self, tmp_path, capsys):
        path = write_polygon(tmp_path, corpus.regular_polygon(6))
        rc, out, _ = run(capsys, ["verify", str(path)])
        assert rc == cli.EXIT_OK
        assert "result: PASS" in out
        assert "strategy generic" in out

    def test_regular_polygon_uses_generic(self, tmp_path, capsys):
        path = write_polygon(tmp_path, corpus.regular_polygon(12))
        rc, out, _ = run(capsys, ["verify", str(path), "--json"])
        assert rc == cli.EXIT_OK
        payload = json.loads(out)
        assert payload["strategy"] == "generic"
        assert payload["passed"] is True

    def test_flat_vertex_polygon_accepted(self, tmp_path, capsys):
        path = write_polygon(tmp_path, corpus.degenerate_pentagon())
        rc, out, _ = run(capsys, ["verify", str(path), "--json"])
        assert rc == cli.EXIT_OK
        assert json.loads(out)["passed"] is True

    def test_flat_quadrilateral_accepted(self, tmp_path, capsys):
        """A triangle whose side a neighbor splits: a quadrilateral with a
        flat vertex, built by the same per-diagonal solve."""
        quad = Polygon(np.array([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        path = write_polygon(tmp_path, quad)
        rc, out, _ = run(capsys, ["verify", str(path), "--json"])
        assert rc == cli.EXIT_OK
        payload = json.loads(out)
        assert payload["passed"] is True and payload["strategy"] == "quadrilateral"

    def test_wachspress_on_flat_vertex_is_input_error(self, tmp_path, capsys):
        """The Wachspress weight of a flat vertex is 0; the polygon is refused
        rather than verified with a basis that misses that vertex."""
        path = write_polygon(tmp_path, corpus.degenerate_pentagon())
        for command in (["verify", str(path)], ["sample", str(path), "--resolution", "5"]):
            rc, out, err = run(capsys, command + ["--kind", "wachspress"])
            assert rc == cli.EXIT_INPUT
            assert "flat vertex" in err and "PASS" not in out

    def test_coefficient_blowup_is_numerical_failure(self, tmp_path, capsys):
        """The 2 x 1 rectangle with its side midpoints: both ends of the
        diagonal (1, 4) are flat vertices, so the intercepts leave no margin."""
        rectangle = Polygon([[0, 0], [1, 0], [2, 0], [2, 1], [1, 1], [0, 1]])
        rc, out, err = run(capsys, ["verify", str(write_polygon(tmp_path, rectangle))])
        assert rc == cli.EXIT_NUMERICAL
        assert out == ""
        assert err.startswith("error: the polygon, diagonal (1, 4): ")
        assert "polygon 0" not in err

    def test_failed_verdict_is_numerical_failure(self, tmp_path, capsys):
        pentagon = Polygon([[0, 0], [2, 0], [2.5, 1], [1, 2], [-0.5, 1]])
        rc, out, _ = run(capsys, ["verify", str(write_polygon(tmp_path, pentagon)), "--tol", "1e-300"])
        assert rc == cli.EXIT_NUMERICAL
        assert "result: FAIL (tolerance 1e-300)" in out

    def test_nonconvex_rejected_as_input_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"vertices": [
            [0.0, 0.0], [2.0, 0.0], [1.0, 0.5], [1.0, 2.0]
        ]}))
        rc, _, err = run(capsys, ["verify", str(path)])
        assert rc == cli.EXIT_INPUT
        assert "convex" in err

    def test_kind_choices_rejected_by_parser(self, tmp_path, capsys):
        path = write_polygon(tmp_path, corpus.unit_square())
        with pytest.raises(SystemExit):
            cli.main(["verify", str(path), "--kind", "nonsense"])
        capsys.readouterr()

    def test_dump_A_writes_reduction_matrix(self, tmp_path, capsys):
        path = write_polygon(tmp_path, corpus.unit_square())
        out_csv = tmp_path / "A.csv"
        rc, _, _ = run(capsys, ["verify", str(path), "--dump-A", str(out_csv)])
        assert rc == cli.EXIT_OK
        A = np.loadtxt(out_csv, delimiter=",")
        assert A.shape == (8, 10)
        assert A[:, :8] == pytest.approx(np.eye(8), abs=0.0)
        assert A[0, 8] == pytest.approx(-1.0, abs=0.0)
        assert A[4, 8] == pytest.approx(0.5, abs=0.0)

    def test_seeded_sampling_deterministic(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        path = write_polygon(tmp_path, corpus.random_convex_polygon(rng, 7))
        rc1, out1, _ = run(capsys, ["verify", str(path), "--json", "--seed", "3"])
        rc2, out2, _ = run(capsys, ["verify", str(path), "--json", "--seed", "3"])
        assert rc1 == rc2 == cli.EXIT_OK
        assert out1 == out2


class TestSample:
    def test_coarse_grid_center_row(self, tmp_path, capsys):
        path = write_polygon(tmp_path, corpus.unit_square())
        rc, out, _ = run(capsys, ["sample", str(path), "--resolution", "3",
                                  "--kind", "wachspress"])
        assert rc == cli.EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "x,y," + ",".join(f"psi_{k}" for k in range(1, 9))
        assert len(lines) == 2
        values = [float(tok) for tok in lines[1].split(",")]
        assert values[:2] == [0.5, 0.5]
        psi = np.array(values[2:])
        assert psi[:4] == pytest.approx(np.full(4, -0.25), abs=1e-14)
        assert psi[4:] == pytest.approx(np.full(4, 0.5), abs=1e-14)
        assert float(psi.sum()) == pytest.approx(1.0, abs=1e-14)

    def test_zero_resolution_outputs_header_only(self, tmp_path, capsys):
        path = write_polygon(tmp_path, corpus.regular_polygon(5))
        rc, out, _ = run(capsys, ["sample", str(path), "--resolution", "0"])
        assert rc == cli.EXIT_OK
        assert out == "x,y," + ",".join(f"psi_{k}" for k in range(1, 11)) + "\n"

    def test_output_file_and_summary_line(self, tmp_path, capsys):
        path = write_polygon(tmp_path, corpus.unit_square())
        dest = tmp_path / "grid.csv"
        rc, out, _ = run(capsys, ["sample", str(path), "--resolution", "5",
                                  "--output", str(dest)])
        assert rc == cli.EXIT_OK
        body = dest.read_text().strip().splitlines()
        n_rows = len(body) - 1
        assert f"wrote {n_rows} rows to {dest}" in out
        assert n_rows == 9  # interior 3x3 subgrid of the 5x5 lattice
        data = np.array([[float(t) for t in line.split(",")] for line in body[1:]])
        assert data[:, 2:].sum(axis=1) == pytest.approx(np.ones(n_rows), abs=1e-12)

    def test_flat_vertex_polygon_sampled(self, tmp_path, capsys):
        path = write_polygon(tmp_path, corpus.degenerate_pentagon())
        rc, out, _ = run(capsys, ["sample", str(path), "--resolution", "5"])
        assert rc == cli.EXIT_OK
        lines = out.strip().splitlines()
        assert len(lines) == 1 + 9
        width = 2 + 2 * 5
        for line in lines[1:]:
            assert len(line.split(",")) == width

    def test_runs_are_identical(self, tmp_path, capsys):
        rng = np.random.default_rng(9)
        path = write_polygon(tmp_path, corpus.random_convex_polygon(rng, 6))
        rc1, out1, _ = run(capsys, ["sample", str(path), "--resolution", "10"])
        rc2, out2, _ = run(capsys, ["sample", str(path), "--resolution", "10"])
        assert rc1 == rc2 == cli.EXIT_OK
        assert out1 == out2


class TestConvergence:
    def test_small_study_csv(self, tmp_path, capsys):
        dest = tmp_path / "rows.csv"
        rc, out, _ = run(capsys, ["convergence", "--levels", "2,4",
                                  "--output", str(dest)])
        assert rc == cli.EXIT_OK
        lines = dest.read_text().strip().splitlines()
        assert lines[0] == "n,dofs,l2_error,l2_rate,h1_error,h1_rate"
        assert len(lines) == 3
        first = lines[1].split(",")
        second = lines[2].split(",")
        assert first[0] == "2" and second[0] == "4"
        assert first[3] == "" and first[5] == ""  # no rates on the first row
        # Coarse two-level study: rates are still pre-asymptotic here (they
        # approach 3 and 2 only on finer meshes), so pin the measured values.
        assert float(second[2]) < float(first[2])
        assert float(second[4]) < float(first[4])
        assert float(second[3]) == pytest.approx(2.409, abs=0.15)
        assert float(second[5]) == pytest.approx(1.472, abs=0.15)
        # markdown table goes to stdout
        assert "| n | dofs |" in out

    def test_json_payload(self, capsys):
        rc, out, _ = run(capsys, ["convergence", "--levels", "2", "--json"])
        assert rc == cli.EXIT_OK
        payload = json.loads(out)
        assert len(payload) == 1
        assert payload[0]["n"] == 2
        assert payload[0]["dofs"] == 21
        assert payload[0]["l2_rate"] is None
        timings = payload[0]["timings"]
        assert set(timings) == {"mesh", "maps", "assemble", "solve", "norms"}
        assert all(t >= 0.0 for t in timings.values())

    def test_single_level_has_empty_rates(self, tmp_path, capsys):
        dest = tmp_path / "one.csv"
        rc, _, _ = run(capsys, ["convergence", "--levels", "4",
                                "--output", str(dest)])
        assert rc == cli.EXIT_OK
        lines = dest.read_text().strip().splitlines()
        assert len(lines) == 2
        cells = lines[1].split(",")
        assert cells[3] == "" and cells[5] == ""

    def test_extreme_offset_still_solves(self, capsys):
        rc, out, _ = run(capsys, ["convergence", "--levels", "2,4",
                                  "--offset", "0.45"])
        assert rc == cli.EXIT_OK
        assert "| 4 |" in out

    def test_bad_levels_is_input_error(self, capsys):
        rc, _, err = run(capsys, ["convergence", "--levels", "2,x"])
        assert rc == cli.EXIT_INPUT
        assert "levels" in err
        rc2, _, err2 = run(capsys, ["convergence", "--levels", "0,2"])
        assert rc2 == cli.EXIT_INPUT

    def test_repeated_level_is_input_error(self, capsys):
        rc, out, err = run(capsys, ["convergence", "--levels", "2,2", "--json"])
        assert rc == cli.EXIT_INPUT
        assert out == ""
        assert "strictly increasing" in err

    def test_solver_failure_maps_to_exit_three(self, capsys, monkeypatch):
        def explode(*args, **kwargs):
            report = SolveReport(np.zeros(1), 5, 1.0, False)
            raise ConvergenceError("stalled", report)

        monkeypatch.setattr(cli, "convergence_study", explode)
        rc, _, err = run(capsys, ["convergence", "--levels", "2"])
        assert rc == cli.EXIT_SOLVER
        assert "stalled" in err


class TestMeshgen:
    def test_two_by_two_mesh_payload(self, tmp_path, capsys):
        dest = tmp_path / "mesh.json"
        rc, out, _ = run(capsys, ["meshgen", "--n", "2", "--output", str(dest)])
        assert rc == cli.EXIT_OK
        assert "wrote 9 vertices, 4 cells" in out
        payload = json.loads(dest.read_text())
        assert len(payload["vertices"]) == 9
        assert len(payload["cells"]) == 4

    def test_default_output_is_stdout(self, capsys):
        rc, out, _ = run(capsys, ["meshgen", "--n", "1"])
        assert rc == cli.EXIT_OK
        payload = json.loads(out)
        assert len(payload["vertices"]) == 4
        assert payload["cells"] == [[0, 2, 3, 1]]

    def test_generated_mesh_revalidates(self, tmp_path, capsys):
        from polyserend import mesh_from_json

        dest = tmp_path / "mesh8.json"
        rc, _, _ = run(capsys, ["meshgen", "--n", "8", "--offset", "0.4",
                                "--output", str(dest)])
        assert rc == cli.EXIT_OK
        mesh = mesh_from_json(json.loads(dest.read_text()))
        assert mesh.n_cells == 64

    def test_invalid_offset_is_input_error(self, capsys):
        rc, _, err = run(capsys, ["meshgen", "--offset", "0.6"])
        assert rc == cli.EXIT_INPUT
        assert "offset" in err


class TestErrorPaths:
    def test_missing_file(self, capsys):
        rc, _, err = run(capsys, ["verify", "/nonexistent/poly.json"])
        assert rc == cli.EXIT_INPUT
        assert "error:" in err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json at all")
        rc, _, err = run(capsys, ["verify", str(path)])
        assert rc == cli.EXIT_INPUT

    def test_wrong_payload_shape(self, tmp_path, capsys):
        path = tmp_path / "nokey.json"
        path.write_text(json.dumps({"points": [[0, 0], [1, 0], [0, 1]]}))
        rc, _, err = run(capsys, ["verify", str(path)])
        assert rc == cli.EXIT_INPUT
        assert "vertices" in err

    @pytest.mark.parametrize("command", ["verify", "sample"])
    @pytest.mark.parametrize("vertices", [
        [[0, 0], [1, 0], [1]],
        [[0, 0], ["a", 0], [0, 1]],
        {"x": [0, 1, 0], "y": [0, 0, 1]},
        [[0, 0], [10**400, 0], [0, 1]],
        [["0", "0"], ["1", "0"], ["0", "1e0"]],
        [[False, False], [True, False], [False, True]],
        [[0, 0], [True, 0], [0, 1]],
    ], ids=["ragged", "string", "dict", "int-overflow", "numeric-string", "bool", "bool-among-ints"])
    def test_vertices_that_are_not_numbers(self, tmp_path, capsys, command, vertices):
        """These used to end in a traceback and exit 1, the numerical-failure
        code; numeric strings and booleans, also a true among numbers, were
        read as the unit triangle."""
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"vertices": vertices}))
        rc, out, err = run(capsys, [command, str(path)])
        assert rc == cli.EXIT_INPUT
        assert out == ""
        assert "error: vertices must be an array of numbers" in err

    @pytest.mark.parametrize("command, flag, value", [
        ("verify", "--tol", "-1"),
        ("verify", "--tol", "0"),
        ("verify", "--tol", "inf"),
        ("verify", "--samples", "-3"),
        ("verify", "--seed", "-1"),
        ("sample", "--resolution", "-2"),
        ("convergence", "--cg-tol", "-1"),
        ("convergence", "--cg-tol", "0"),
        ("convergence", "--cg-tol", "nan"),
        # A relative residual of 1 or more accepts the zero start: an unsolved system.
        ("convergence", "--cg-tol", "1"),
        ("convergence", "--cg-tol", "2.5"),
    ])
    def test_invalid_numeric_flag_is_input_error(self, tmp_path, capsys, command, flag, value):
        argv = [command, flag, value]
        if command != "convergence":
            argv.insert(1, str(write_polygon(tmp_path, corpus.unit_square())))
        else:
            argv += ["--levels", "2"]
        rc, out, err = run(capsys, argv)
        assert rc == cli.EXIT_INPUT
        assert out == ""
        assert flag in err


class TestEntryPoint:
    def test_module_help_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "polyserend", "--help"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert "verify" in proc.stdout
        assert "convergence" in proc.stdout
