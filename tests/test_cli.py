import json
import math

import numpy as np
import pytest

import growthdiff.critical as critical
from growthdiff.cli import main
from growthdiff.critical import envelope_to_csv, run_critical
from growthdiff.exact import build_series, eval_series
from growthdiff.motion import CriticalMotion, PhysicsParams, SeparableMotion, motion_to_document
from growthdiff.output import write_json

PI = "3.141592653589793"


@pytest.fixture(autouse=True)
def run_in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)


class TestEigenCommand:
    def test_free_interval_modes(self, tmp_path):
        rc = main(["eigen", "--D", "1", "--L0", PI, "--gamma0", "0",
                   "--gamma1", "0", "--modes", "4"])
        assert rc == 0
        assert (tmp_path / "eigen.csv").exists()
        header = json.loads((tmp_path / "eigen.json").read_text())
        assert header["kind"] == "interval"
        assert header["num_modes"] == 4
        assert np.allclose(header["sigmas"], [-1.0, -4.0, -9.0, -16.0],
                           atol=1e-6)

    def test_radial_modes(self, tmp_path):
        rc = main(["eigen", "--D", "1", "--L0", "2", "--gamma0", "0",
                   "--gamma1", "0", "--n-dim", "3", "--modes", "2"])
        assert rc == 0
        header = json.loads((tmp_path / "eigen.json").read_text())
        assert header["kind"] == "radial"
        assert header["sigmas"][0] == pytest.approx(-math.pi ** 2, rel=1e-6)

    def test_missing_field(self, capsys):
        assert main(["eigen", "--D", "1"]) == 2
        assert "missing required field: L0" in capsys.readouterr().err

    def test_radial_rejects_tilt(self, capsys):
        rc = main(["eigen", "--D", "1", "--L0", "2", "--gamma0", "0",
                   "--gamma1", "0.5", "--n-dim", "2"])
        assert rc == 2
        assert "gamma1 does not apply" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "eigen.json.in"
        cfg.write_text(json.dumps({"D": 1.0, "L0": 1.0, "gamma0": 0.0,
                                   "gamma1": 0.0, "bogus": 5}))
        assert main(["eigen", "--config", str(cfg)]) == 2
        assert "unknown config keys: bogus" in capsys.readouterr().err

    def test_missing_config_file(self, capsys):
        assert main(["eigen", "--config", "nope.json"]) == 2
        assert "cannot read config file" in capsys.readouterr().err

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"D": 1.0, "L0": float(PI), "gamma0": 0.0,
                                   "gamma1": 0.0, "modes": 2, "grid": 256}))
        rc = main(["eigen", "--config", str(cfg), "--modes", "4"])
        assert rc == 0
        header = json.loads((tmp_path / "eigen.json").read_text())
        assert header["num_modes"] == 4      # flag wins
        assert header["grid_size"] == 256    # config fills the rest


class TestExactCommand:
    def test_field_drains_before_collapse(self, tmp_path):
        rc = main(["exact", "--family", "sqrt", "--D", "1", "--f0", "1",
                   "--L0", "1", "--rho", "-0.5", "--times", "0.9999",
                   "--out", "collapse"])
        assert rc == 0
        lines = (tmp_path / "collapse.csv").read_text().splitlines()
        assert lines[0] == "x,xi,t,psi,u,w"
        psi = [abs(float(row.split(",")[3])) for row in lines[1:]]
        assert len(psi) == 101
        assert max(psi) < 1e-6

    def test_past_horizon_is_a_numeric_failure(self, capsys):
        rc = main(["exact", "--family", "sqrt", "--D", "1", "--f0", "1",
                   "--L0", "1", "--rho", "-0.5", "--times", "1.5"])
        assert rc == 3
        assert "numeric failure" in capsys.readouterr().err

    def test_sums_each_series_at_most_twice_per_time(self, tmp_path, monkeypatch):
        from growthdiff import exact
        calls = []
        real = exact._sum_modes
        monkeypatch.setattr(exact, "_sum_modes",
                            lambda *a, **k: calls.append(1) or real(*a, **k))
        rc = main(["exact", "--family", "linear", "--D", "0.5", "--f0", "1.2",
                   "--L0", "1", "--slope", "0.7", "--gamma1", "0.3",
                   "--times", "0.2,0.8"])
        assert rc == 0
        assert len(calls) == 4       # u and w at each of the two times

    def test_failing_last_time_leaves_no_artifacts(self, tmp_path, capsys):
        rc = main(["exact", "--family", "sqrt", "--D", "1", "--f0", "1",
                   "--L0", "1", "--rho", "-0.5", "--times", "0.5,1.5",
                   "--out", "partial"])
        assert rc == 3
        assert "numeric failure" in capsys.readouterr().err
        assert not (tmp_path / "partial.csv").exists()
        assert not (tmp_path / "partial.json").exists()

    def test_roundoff_below_the_horizon_is_a_numeric_failure(self, tmp_path, capsys):
        # L^2 = t^2 - 4t + 1 still rounds to <= 0 at the float below its first
        # root, which the time rule accepts: the kinematics guard refuses it.
        rc = main(["exact", "--family", "quad", "--D", "1", "--f0", "1", "--L0", "1",
                   "--a", "1", "--b", "-2", "--times", "0.26794919243112275",
                   "--out", "guard"])
        assert rc == 3
        assert capsys.readouterr().err == (
            "numeric failure: motion collapsed: its length reads nonpositive at "
            "t=0.26794919243112275, below its horizon t=0.2679491924311228\n")
        assert list(tmp_path.iterdir()) == []

    def test_symmetric_linear_law_is_centred(self, tmp_path):
        # a L0^2 - b^2 rounds to a nonzero gamma0 here; the interval must
        # still be [-L/2, L/2], which at t = 1 is [-0.9, 0.9].
        rc = main(["exact", "--family", "symmetric", "--D", "1", "--f0", "1",
                   "--L0", "1.7", "--a", "0.01", "--b", "0.17", "--times", "1",
                   "--xi-samples", "3", "--out", "sym"])
        assert rc == 0
        rows = (tmp_path / "sym.csv").read_text().splitlines()[1:]
        x = [float(row.split(",")[0]) for row in rows]
        assert x == pytest.approx([-0.9, 0.0, 0.9], abs=1e-12)

    def test_quad_family_is_the_general_length_law(self, tmp_path):
        # --family quad takes L^2 = a t^2 + 2 b t + L0^2 as given.
        rc = main(["exact", "--family", "quad", "--D", "1", "--f0", "1", "--L0", "1",
                   "--a", "0.5", "--b", "0.2", "--gamma1", "0.3", "--times", "0,0.5",
                   "--xi-samples", "5", "--out", "quad"])
        assert rc == 0
        motion = SeparableMotion(PhysicsParams(1.0, 1.0), 0.5, 0.2, 1.0, gamma1=0.3)
        assert json.loads((tmp_path / "quad.json").read_text())["motion"] == \
            motion_to_document(motion)
        table = np.loadtxt(tmp_path / "quad.csv", delimiter=",", skiprows=1)
        sol = build_series(motion, lambda xi: np.sin(np.pi * xi))
        xi = np.linspace(0.0, 1.0, 5)
        np.testing.assert_array_equal(table[5:, 4], eval_series(sol, xi, 0.5))

    def test_rejects_unknown_initial_condition(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"family": "fixed", "D": 1.0, "f0": 1.0,
                                   "L0": 1.0, "ic": "bump"}))
        assert main(["exact", "--config", str(cfg)]) == 2
        assert "unknown initial condition" in capsys.readouterr().err


class TestNumericCommand:
    def test_potential_form_run(self, tmp_path):
        rc = main(["numeric", "--family", "symmetric", "--D", "1", "--f0", "1",
                   "--L0", "1", "--a", "0", "--b", "0", "--form", "w",
                   "--grid", "64", "--dt", "1e-3", "--t-final", "0.1"])
        assert rc == 0
        manifest = json.loads((tmp_path / "numeric.json").read_text())
        assert manifest["kind"] == "w"
        assert manifest["motion"]["family"] == "separable"
        lines = (tmp_path / "numeric.csv").read_text().splitlines()
        assert lines[0] == "t,xi,value"

    def test_off_centre_potential_form_run(self, tmp_path):
        rc = main(["numeric", "--family", "fixed", "--D", "1", "--f0", "1", "--L0", PI,
                   "--gamma1", "0.5", "--c", "0.5", "--form", "w",
                   "--grid", "64", "--dt", "1e-3", "--t-final", "0.1"])
        assert rc == 0
        assert json.loads((tmp_path / "numeric.json").read_text())["kind"] == "w"

    def test_symmetric_linear_law_marches_radially(self, tmp_path):
        rc = main(["numeric", "--family", "symmetric", "--D", "1", "--f0", "1",
                   "--L0", "1.7", "--a", "0.01", "--b", "0.17", "--form", "radial",
                   "--n-dim", "3", "--ic", "dome", "--grid", "64", "--dt", "1e-3",
                   "--t-final", "0.1"])
        assert rc == 0
        assert json.loads((tmp_path / "numeric.json").read_text())["kind"] == "radial"

    def test_quad_family_marches_the_given_law(self, tmp_path):
        rc = main(["numeric", "--family", "quad", "--D", "1", "--f0", "1", "--L0", "1",
                   "--a", "0.5", "--b", "0.2", "--form", "w", "--grid", "64",
                   "--dt", "1e-3", "--t-final", "0.1"])
        assert rc == 0
        params = json.loads((tmp_path / "numeric.json").read_text())["motion"]["params"]
        assert (params["a"], params["b"], params["L0"]) == (0.5, 0.2, 1.0)

    @pytest.mark.parametrize("form, family, expect", [
        ("u", ["--family", "fixed"], lambda x: x * (2.0 - x)),
        ("radial", ["--family", "symmetric", "--a", "0", "--b", "0"], lambda r: 1.0 - r * r),
    ], ids=["interval", "ball"])
    def test_parabola_initial_data(self, tmp_path, form, family, expect):
        rc = main(["numeric", *family, "--D", "1", "--f0", "1", "--L0", "2", "--form", form,
                   "--ic", "parabola", "--grid", "64", "--dt", "1e-3", "--t-final", "0.1"])
        assert rc == 0
        table = np.loadtxt(tmp_path / "numeric.csv", delimiter=",", skiprows=1)
        first = table[table[:, 0] == 0.0]
        np.testing.assert_allclose(first[:, 2], expect(first[:, 1]), rtol=0.0, atol=1e-15)

    def test_peclet_breach_is_a_numeric_failure(self, capsys):
        rc = main(["numeric", "--family", "fixed", "--D", "1", "--f0", "1",
                   "--L0", "1", "--c", "50", "--grid", "8", "--dt", "1e-3",
                   "--t-final", "0.01"])
        assert rc == 3
        assert "Peclet" in capsys.readouterr().err

    def test_bad_form_in_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"family": "fixed", "D": 1.0, "f0": 1.0,
                                   "L0": 1.0, "form": "x"}))
        assert main(["numeric", "--config", str(cfg)]) == 2
        assert "form must be" in capsys.readouterr().err


class TestCompareCommand:
    def test_matched_grids_agree(self, tmp_path):
        rc = main(["compare", "--family", "fixed", "--D", "1", "--f0", "1",
                   "--L0", PI, "--t-final", "1.0"])
        assert rc == 0
        lines = (tmp_path / "compare.csv").read_text().splitlines()
        assert lines[0] == "t,abs_linf,rel_linf,worst_xi"
        doc = json.loads((tmp_path / "compare.json").read_text())
        assert doc["worst_rel_linf"] < 1e-9

    def test_coarse_grid_breaches_tolerance(self, tmp_path, capsys):
        rc = main(["compare", "--family", "fixed", "--D", "1", "--f0", "1",
                   "--L0", PI, "--t-final", "1.0", "--grid", "32"])
        assert rc == 4
        err = capsys.readouterr().err
        assert "tolerance breach" in err
        assert "xi=" in err
        doc = json.loads((tmp_path / "compare.json").read_text())
        assert doc["worst_rel_linf"] == pytest.approx(8.0011e-4, rel=1e-3)

    def test_vanishing_reference_is_a_numeric_failure(self, tmp_path, capsys):
        # On L0 = 0.01 the series' decay exp(-pi^2 t / L0^2) underflows to 0.
        rc = main(["compare", "--family", "fixed", "--D", "1", "--f0", "1",
                   "--L0", "0.01", "--t-final", "1", "--grid", "16", "--dt", "1e-2"])
        assert rc == 3
        assert "reference field vanishes at t=0.25" in capsys.readouterr().err
        assert not (tmp_path / "compare.csv").exists()


class TestCriticalCommand:
    def test_breach_still_writes_the_report(self, tmp_path, capsys):
        # Short horizon: the logarithmic transient keeps the fitted exponent
        # about half a unit below the prediction, so the fit tolerance trips
        # even though the envelope holds.
        rc = main(["critical", "--D", "1", "--f0", "1", "--alpha", "1.5",
                   "--t-final", "80", "--window", "2.5,80", "--grid", "256",
                   "--dt", "5e-3", "--num-outputs", "61", "--out", "crit"])
        assert rc == 4
        assert "fit breach" in capsys.readouterr().err
        doc = json.loads((tmp_path / "crit_report.json").read_text())
        assert doc["route"] == "numeric"
        assert doc["fitted_exponent"] == pytest.approx(-0.504667, abs=1e-3)
        assert doc["predicted_exponent"] == 0.0
        env = doc["envelope"]
        assert env["onset"] == pytest.approx(3.870427, abs=1e-3)
        assert env["C2"] == pytest.approx(0.685295, rel=1e-3)
        assert env["worst_slack"] >= -1e-8
        lines = (tmp_path / "crit_envelope.csv").read_text().splitlines()
        assert lines[0] == "t,xi,lower,field,upper,slack"
        assert len(lines) == 1 + 25 * 257

    def test_tolerance_gates_the_corrected_exponent(self, tmp_path, capsys):
        # Same run as above: the least-squares error is about -0.50, the
        # relaxation-corrected one about -0.135, and only the latter is gated.
        rc = main(["critical", "--D", "1", "--f0", "1", "--alpha", "1.5",
                   "--t-final", "80", "--window", "2.5,80", "--grid", "256",
                   "--dt", "5e-3", "--num-outputs", "61", "--tol", "0.2",
                   "--out", "crit"])
        assert rc == 0
        doc = json.loads((tmp_path / "crit_report.json").read_text())
        assert doc["error"] == pytest.approx(-0.504667, abs=1e-3)
        assert abs(doc["limit_error"]) <= 0.2

    def test_impossible_slack_is_a_numeric_failure(self, capsys):
        rc = main(["critical", "--D", "1", "--f0", "1", "--alpha", "1.5",
                   "--t-final", "80", "--grid", "256", "--dt", "5e-3",
                   "--num-outputs", "61", "--slack-tol", "-1.0"])
        assert rc == 3
        assert "envelope violated" in capsys.readouterr().err

    def test_window_must_span_decades(self, capsys):
        rc = main(["critical", "--D", "1", "--f0", "1", "--alpha", "1.5",
                   "--t-final", "80", "--window", "20,80"])
        assert rc == 2
        assert "1.5 decades" in capsys.readouterr().err

    @pytest.mark.parametrize("window", ["5", "2.5,80,90"])
    def test_window_must_hold_two_numbers(self, capsys, window):
        rc = main(["critical", "--D", "1", "--f0", "1", "--alpha", "1.5",
                   "--t-final", "80", "--window", window])
        assert rc == 2
        assert "window must be two numbers" in capsys.readouterr().err

    @pytest.fixture
    def zeroed_slice(self, monkeypatch):
        # The pipeline's run has a zero slice at its first stored time past
        # t = 1: inside the default fit window [0.632, 20] but before the
        # barrier onset (about 3.9), so the envelope holds and only the fit
        # meets the nonpositive probe value, and raises RuntimeError.
        real = critical.solve_critical

        def solve(*args):
            run = real(*args)
            run.values[np.argmax(run.times >= 1.0)] = 0.0
            return run
        monkeypatch.setattr(critical, "solve_critical", solve)
        return ["critical", "--D", "1", "--f0", "1", "--alpha", "1.5",
                "--t-final", "20", "--grid", "64", "--dt", "1e-2", "--num-outputs", "21"]

    def test_probe_failure_is_a_numeric_failure(self, zeroed_slice, capsys):
        rc = main(zeroed_slice)
        assert rc == 3
        assert ("numeric failure: probe value nonpositive at t=1.08508, offset y=0.5"
                in capsys.readouterr().err)

    def test_failing_fit_leaves_no_artifacts(self, tmp_path, zeroed_slice, capsys):
        # The envelope holds but the fit fails: neither file may be written.
        rc = main(zeroed_slice)
        assert rc == 3
        assert "numeric failure: probe value nonpositive" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_probe_outside_the_domain_is_a_numeric_failure(self, capsys):
        # The first output time in the default window [10^(-0.5), 10] is
        # t = 0.316228, where L = 1.4406 is shorter than the default probe y = 2.
        rc = main(["critical", "--D", "1", "--f0", "1", "--alpha", "1.5",
                   "--t-final", "10", "--grid", "64", "--dt", "1e-2",
                   "--num-outputs", "21"])
        assert rc == 3
        err = capsys.readouterr().err
        assert ("numeric failure: probe offset y=2.0 lies outside the domain "
                "at t=0.316228, where L(t)=1.4406") in err

    def test_missing_alpha(self, capsys):
        assert main(["critical", "--D", "1", "--f0", "1"]) == 2
        assert "missing required field: alpha" in capsys.readouterr().err

    def test_nonpositive_probe_is_a_config_error(self, tmp_path, capsys):
        # Caught with the window, before the march, not at the first fitted time.
        rc = main(["critical", "--D", "1", "--f0", "1", "--alpha", "1.5",
                   "--t-final", "20", "--probes", "0,1"])
        assert rc == 2
        assert ("config error: probe offsets must be one or more finite positive "
                "numbers, got (0.0, 1.0)") in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_artifacts_are_the_pipeline_products(self, tmp_path):
        # The command writes run_critical's document and envelope, nothing else.
        rc = main(["critical", "--D", "1", "--f0", "1", "--alpha", "1.5",
                   "--t-final", "20", "--grid", "64", "--dt", "1e-2",
                   "--num-outputs", "21", "--tol", "10", "--out", "cli"])
        assert rc == 0
        motion = CriticalMotion(PhysicsParams(D=1.0, f0=1.0), alpha=1.5)
        run = run_critical(motion, t_final=20.0, grid_size=64, dt=1e-2,
                           num_outputs=21, tol=10.0)
        assert json.loads((tmp_path / "cli_report.json").read_text()) == run.document
        write_json(tmp_path / "lib_report.json", run.document)
        envelope_to_csv(run.envelope, tmp_path / "lib_envelope.csv")
        for suffix in ("_report.json", "_envelope.csv"):
            assert ((tmp_path / ("cli" + suffix)).read_bytes()
                    == (tmp_path / ("lib" + suffix)).read_bytes())


_RERUNS = {
    "eigen": (["eigen", "--D", "1", "--L0", "2", "--gamma0", "0", "--gamma1", "0",
               "--n-dim", "3", "--modes", "3", "--grid", "64"], (".csv", ".json")),
    "exact": (["exact", "--family", "linear", "--D", "0.5", "--f0", "1.2",
               "--L0", "1", "--slope", "0.7", "--gamma1", "0.3",
               "--times", "0.2,0.8"], (".csv", ".json")),
    "numeric": (["numeric", "--family", "symmetric", "--D", "1", "--f0", "1",
                 "--L0", "2", "--a", "0.1", "--b", "0.2", "--form", "radial",
                 "--grid", "64", "--dt", "1e-3", "--t-final", "0.1"], (".csv", ".json")),
    "compare": (["compare", "--family", "fixed", "--D", "1", "--f0", "1", "--L0", PI,
                 "--t-final", "0.2", "--grid", "64", "--dt", "1e-2"], (".csv", ".json")),
    "critical": (["critical", "--D", "1", "--f0", "1", "--alpha", "1.5",
                  "--t-final", "20", "--grid", "64", "--dt", "1e-2",
                  "--num-outputs", "21", "--tol", "10"], ("_envelope.csv", "_report.json")),
}


@pytest.mark.parametrize("argv, artifacts", list(_RERUNS.values()), ids=list(_RERUNS))
def test_reruns_are_byte_identical(tmp_path, argv, artifacts):
    assert main(argv + ["--out", "one"]) == 0
    assert main(argv + ["--out", "two"]) == 0
    for suffix in artifacts:
        one = (tmp_path / ("one" + suffix)).read_bytes()
        assert one and one == (tmp_path / ("two" + suffix)).read_bytes()


def _config_of(argv):
    """The config object equivalent to ``argv``'s flags: JSON numbers, arrays
    for comma-separated lists, strings for the rest."""
    cfg = {}
    for flag, text in zip(argv[1::2], argv[2::2]):
        try:
            value = json.loads(text)
        except json.JSONDecodeError:
            value = [float(p) for p in text.split(",")] if "," in text else text
        cfg[flag[2:].replace("-", "_")] = value
    return cfg


@pytest.mark.parametrize("argv, artifacts", list(_RERUNS.values()), ids=list(_RERUNS))
def test_config_file_writes_what_the_flags_write(tmp_path, argv, artifacts):
    # A flag's string and a config file's JSON value go through one converter.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**_config_of(argv), "out": "config"}))
    assert main(argv + ["--out", "flags"]) == 0
    assert main([argv[0], "--config", str(cfg)]) == 0
    for suffix in artifacts:
        flags = (tmp_path / ("flags" + suffix)).read_bytes()
        assert flags and flags == (tmp_path / ("config" + suffix)).read_bytes()


_SHORT_RUNS = {
    "numeric": ["numeric", "--family", "symmetric", "--D", "1", "--f0", "1",
                "--L0", "2", "--a", "0.1", "--b", "0.2", "--form", "w",
                "--grid", "64", "--dt", "1e-3", "--t-final", "0.1"],
    "compare": ["compare", "--family", "fixed", "--D", "1", "--f0", "1", "--L0", PI,
                "--t-final", "0.2", "--grid", "64", "--dt", "1e-2"],
    "critical": ["critical", "--D", "1", "--f0", "1", "--alpha", "1.5",
                 "--t-final", "20", "--grid", "64", "--dt", "1e-2",
                 "--num-outputs", "21", "--tol", "10"],
}


@pytest.mark.parametrize("argv", [
    _SHORT_RUNS["critical"] + ["--probes=nan"],
    _SHORT_RUNS["critical"] + ["--tol", "nan"],
    _SHORT_RUNS["critical"] + ["--slack-tol", "nan"],
    ["compare", "--family", "fixed", "--D", "1", "--f0", "1", "--L0", PI,
     "--t-final", "1.0", "--grid", "32", "--tol", "nan"],
], ids=["critical-probes", "critical-tol", "critical-slack-tol", "compare-tol"])
def test_nan_is_a_config_error(tmp_path, capsys, argv):
    # Every comparison with NaN is False, so a NaN tolerance would pass any run.
    assert main(argv) == 2
    assert "config error" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


_FIXED = ["--family", "fixed", "--D", "1", "--f0", "1", "--L0", "1"]
_CENTRED = ["--family", "symmetric", "--D", "1", "--f0", "1", "--L0", "1", "--a", "0",
            "--b", "0"]
_EIGEN = ["eigen", "--D", "1", "--L0", "1", "--gamma0", "0", "--gamma1", "0"]
_CRITICAL = ["critical", "--D", "1", "--f0", "1", "--alpha", "1.5"]

# One command per argument check, the library's or the command line's, with the
# message it prints.
_BAD_ARGUMENTS = {
    "numeric-grid": (["numeric", *_FIXED, "--grid", "4"], "grid_size must be at least 8"),
    "numeric-dt": (["numeric", *_FIXED, "--dt", "-1"],
                   "dt and T must be finite and positive, got dt=-1.0, T=1.0"),
    "numeric-t-final-inf": (["numeric", *_FIXED, "--t-final", "inf"],
                            "dt and T must be finite and positive, got dt=0.001, T=inf"),
    "numeric-times-past-t-final": (["numeric", *_FIXED, "--times", "0,2", "--t-final", "0.1"],
                                   "output times must lie in [0, T]"),
    "numeric-radial-off-centre": (["numeric", *_FIXED, "--gamma1", "0.5", "--form", "radial"],
                                  "motion is not centred: gamma1 + gamma0/2 = 5.000e-01"),
    "numeric-radial-n-dim": (["numeric", *_CENTRED, "--form", "radial", "--n-dim", "4"],
                             "n_dim must be 1, 2 or 3, got 4"),
    "numeric-D": (["numeric", *_FIXED, "--D", "0"], "diffusivity D must be positive, got 0.0"),
    "numeric-f0": (["numeric", *_FIXED, "--f0", "-1"],
                   "growth rate f0 must be positive, got -1.0"),
    "numeric-L0": (["numeric", *_FIXED, "--L0", "-1"],
                   "initial length L0 must be positive, got -1.0"),
    "eigen-L0": (_EIGEN + ["--L0", "-1"], "D and L0 must be positive"),
    "eigen-grid": (_EIGEN + ["--grid", "32"], "grid_size must be at least 64, got 32"),
    "eigen-odd-grid": (_EIGEN + ["--grid", "65"], "extrapolation requires an even grid_size"),
    "eigen-radial-D": (_EIGEN + ["--D", "-1", "--n-dim", "3"], "D and R0 must be positive"),
    "eigen-n-dim": (_EIGEN + ["--n-dim", "5"], "n_dim must be 1, 2 or 3, got 5"),
    "exact-modes": (["exact", *_FIXED, "--modes", "1000"],
                    "num_modes must lie in [1, grid_size/4] = [1, 128], got 1000"),
    "exact-times-inf": (["exact", *_FIXED, "--times", "inf"],
                        "motions are defined for finite t >= 0, got t=inf"),
    "compare-grid": (["compare", *_FIXED, "--grid", "4"], "grid_size must be at least 8"),
    "critical-grid": (_CRITICAL + ["--grid", "4"], "grid_size must be at least 8"),
    "critical-num-outputs": (_CRITICAL + ["--num-outputs", "5"],
                             "only 2 output times fall in the fit window"),
    "critical-dt": (_CRITICAL + ["--dt", "200"], "only 1 output times fall in the fit window"),
    "critical-n-dim": (_CRITICAL + ["--n-dim", "4"], "n_dim must be 1, 2 or 3, got 4"),
    "critical-alpha": (_CRITICAL + ["--alpha", "-1"],
                       "log-lag coefficient alpha must be positive, got -1.0"),
    "critical-L0-offset": (_CRITICAL + ["--L0-offset", "0"],
                           "L0_offset must be positive, got 0.0"),
    "critical-eta-p": (_CRITICAL + ["--eta-k", "1", "--eta-p", "0.5"],
                       "eta exponent p must be negative, got 0.5"),
    "critical-window": (_CRITICAL + ["--window", "5"],
                        "fit window must be two numbers lo, hi, got (5.0,)"),
    # A non-finite parameter ran on into nan fields, an overflow or a LAPACK refusal.
    "exact-f0-inf": (["exact", *_FIXED, "--f0", "inf"], "f0 must be finite, got inf"),
    "exact-c-inf": (["exact", *_FIXED, "--c", "inf"], "c must be finite, got inf"),
    "numeric-c-inf": (["numeric", *_FIXED, "--c", "inf", "--form", "u", "--grid", "64",
                       "--dt", "1e-3", "--t-final", "0.1"], "c must be finite, got inf"),
    "numeric-D-inf": (["numeric", *_FIXED, "--D", "inf"], "D must be finite, got inf"),
    "numeric-L0-inf": (["numeric", *_FIXED, "--L0", "inf"], "L0 must be finite, got inf"),
    "numeric-gamma1-inf": (["numeric", *_FIXED, "--gamma1", "inf"],
                           "gamma1 must be finite, got inf"),
    "numeric-slope-inf": (["numeric", "--family", "linear", "--D", "1", "--f0", "1", "--L0", "1",
                           "--slope", "inf"], "slope must be finite, got inf"),
    "eigen-gamma0-inf": (_EIGEN + ["--gamma0", "inf"], "gamma0 must be finite, got inf"),
    "eigen-radial-gamma0-inf": (_EIGEN + ["--gamma0", "inf", "--n-dim", "2"],
                                "gamma0 must be finite, got inf"),
    "critical-eta-k-inf": (_CRITICAL + ["--eta-k", "inf"], "k must be finite, got inf"),
    # Fewer than two positions wrote an empty table, or only the xi = 0 rows.
    "exact-xi-samples--1": (["exact", *_FIXED, "--xi-samples", "-1"],
                            "xi_samples must be at least 2, got -1"),
    "exact-xi-samples-0": (["exact", *_FIXED, "--xi-samples", "0"],
                           "xi_samples must be at least 2, got 0"),
    "exact-xi-samples-1": (["exact", *_FIXED, "--xi-samples", "1"],
                           "xi_samples must be at least 2, got 1"),
    "numeric-radial-ic": (["numeric", *_CENTRED, "--form", "radial", "--ic", "sine"],
                          "unknown radial initial condition 'sine'; expected dome or parabola"),
    "numeric-negative-times": (["numeric", *_FIXED, "--times=-1,0.5"],
                               "times must be nonnegative"),
    "compare-no-positive-time": (["compare", *_FIXED, "--times", "0"],
                                 "compare needs at least one positive output time"),
}


@pytest.mark.parametrize("argv, message", list(_BAD_ARGUMENTS.values()),
                         ids=list(_BAD_ARGUMENTS))
def test_library_argument_check_is_a_config_error(tmp_path, capsys, argv, message):
    # The library raises ParameterError before computing; main maps it alone to 2.
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert list(tmp_path.iterdir()) == []


def test_long_u_step_is_a_numeric_failure(tmp_path, capsys):
    # dt f0 >= 2 is found from the operator's bound while marching: exit 3.
    rc = main(["numeric", "--family", "fixed", "--D", "1", "--f0", "1", "--L0", "10",
               "--form", "u", "--grid", "64", "--dt", "3", "--t-final", "3", "--times", "0,3"])
    assert rc == 3
    assert ("numeric failure: step to t=3 is too long for the growth rate"
            in capsys.readouterr().err)
    assert list(tmp_path.iterdir()) == []


_VALID = {
    "eigen": {"D": 1, "L0": 1, "gamma0": 0, "gamma1": 0, "grid": 64},
    "numeric": {"family": "fixed", "D": 1, "f0": 1, "L0": 1, "grid": 16, "dt": 1e-2,
                "t_final": 0.1},
}


@pytest.mark.parametrize("command, key, value", [
    ("eigen", "out", 5),
    ("numeric", "dt", None),
    ("numeric", "family", ["fixed"]),
    ("eigen", "extrapolate", "no"),
    ("eigen", "n_dim", True),
    ("numeric", "D", True),
    ("numeric", "times", 5),
    ("numeric", "times", []),
], ids=["out-number", "dt-null", "family-array", "extrapolate-string", "n_dim-bool",
        "D-bool", "times-number", "times-empty"])
def test_ill_typed_config_value_is_a_config_error(tmp_path, capsys, command, key, value):
    # Each of these crashed with a traceback or ran with a silently coerced value.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**_VALID[command], key: value}))
    assert main([command, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key} must be ")
    assert "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize("text, message", [
    ('{"D": 1,', "config file is not valid JSON: "),
    ("[1, 2]", "config file must hold a JSON object"),
], ids=["invalid-json", "not-an-object"])
def test_unreadable_config_is_a_config_error(tmp_path, capsys, text, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert main(["eigen", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("config error: " + message)
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize("D, c, message", [
    ("1e-300", "1e10", "cell Peclet number 1.56e+308 exceeds 2 at t=0.0005"),
    ("1", "1e306", "cell Peclet number 1.56e+304 exceeds 2 at t=0.0005; "
     "increase grid_size to at least 5.01e+305"),
], ids=["grid-overflows", "huge-grid"])
def test_extreme_peclet_refusal_is_a_short_numeric_failure(tmp_path, capsys, D, c, message):
    # The first ended in an OverflowError traceback; the second printed both
    # numbers with 300 digits.
    rc = main(["numeric", "--family", "fixed", "--D", D, "--f0", "1", "--L0", "1", "--c", c,
               "--form", "u", "--grid", "64", "--dt", "1e-3", "--t-final", "0.1"])
    assert rc == 3
    assert capsys.readouterr().err == f"numeric failure: {message}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("key, text, value, message", [
    ("grid", "1.5", 1.5, "grid must be an integer, got 1.5"),
    ("family", "box", "box",
     "family must be one of fixed, linear, quad, sqrt, symmetric, got box"),
    ("form", "x", "x", "form must be one of u, w, radial, got x"),
    ("times", "0.1,x", "0.1,x", "times must be one or more numbers, comma-separated "
     "or a JSON array, got 0.1,x"),
    ("t_final", "1e-1x", "1e-1x", "t_final must be a number, got 1e-1x"),
], ids=["grid", "family", "form", "times", "t_final"])
def test_bad_value_fails_alike_by_flag_and_by_config(tmp_path, capsys, key, text, value,
                                                     message):
    argv = _SHORT_RUNS["numeric"]
    assert main(argv + ["--" + key.replace("_", "-"), text]) == 2
    by_flag = capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**_config_of(argv), key: value}))
    assert main(["numeric", "--config", str(cfg)]) == 2
    assert by_flag == capsys.readouterr().err == f"config error: {message}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize("command", sorted(_SHORT_RUNS))
class TestThetaIsNotAnOption:
    # Every march is Crank-Nicolson; there is no implicitness to choose.
    def test_flag_is_rejected(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main(_SHORT_RUNS[command] + ["--theta", "0.75"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --theta 0.75" in capsys.readouterr().err

    def test_config_key_is_rejected(self, command, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"theta": 0.75}))
        assert main(_SHORT_RUNS[command] + ["--config", str(cfg)]) == 2
        assert "unknown config keys: theta" in capsys.readouterr().err


class TestEta0IsNotAnOption:
    # A constant part of eta only shifts the start, which t0 already pins.
    def test_flag_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(_SHORT_RUNS["critical"] + ["--eta0", "0.5"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --eta0 0.5" in capsys.readouterr().err

    def test_config_key_is_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"eta0": 0.5}))
        assert main(_SHORT_RUNS["critical"] + ["--config", str(cfg)]) == 2
        assert "unknown config keys: eta0" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["numeric", "compare"])
def test_run_records_name_the_scheme_without_theta(command, tmp_path):
    assert main(_SHORT_RUNS[command] + ["--out", "run"]) == 0
    record = json.loads((tmp_path / "run.json").read_text())
    assert "theta" not in record
    assert record["scheme"] == ("Crank-Nicolson (implicit midpoint), "
                                "coefficients at the half step")


@pytest.mark.parametrize("command, record", [("numeric", "run.json"), ("compare", "run.json"),
                                             ("critical", "run_report.json")])
def test_run_records_count_negative_values(command, record, tmp_path):
    # One {count, first_t, last_t} record of the march in every run record;
    # these sine runs store no negative value.
    assert main(_SHORT_RUNS[command] + ["--out", "run"]) == 0
    doc = json.loads((tmp_path / record).read_text())
    assert doc["schema_version"] == 1
    assert doc["negative_values"] == {"count": 0, "first_t": None, "last_t": None}
