import io
from pathlib import Path

import numpy as np
import pytest

from runners import build_problem
from slabtrt.angular import NORM_P1
from slabtrt.cli_io import (
    COMPARISON_HEADER,
    HISTORY_HEADER,
    PROFILES_HEADER,
    SCHEMES,
    ConfigError,
    RunConfig,
    RunResult,
    _run,
    _write_csv,
    _write_result,
    main,
    parse_config,
    run_simulation,
    simulate,
)
from slabtrt.limits_diagnostics import cfl_report, energy, mass, relative_mass_error
from slabtrt.mesh_state import MacroState, StaggeredGrid
from slabtrt.scenarios import X_MAX, X_MIN

DESK = """
scenario = rectangular_pulse
scheme = {scheme}
nx = 40
n_moments = 6
epsilon = {epsilon}
t_end = 0.2
output_dir = {out}
"""


def read_rows(path):
    lines = path.read_text().strip().splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


class TestParseConfig:
    def test_defaults_filled(self):
        cfg = parse_config("scenario = rectangular_pulse\nscheme = bug_adaptive\nepsilon = 1.0")
        assert cfg.scenario == "rectangular_pulse"
        assert cfg.scheme == "bug_adaptive"
        assert cfg.epsilon == 1.0
        assert cfg.history_stride == 1
        assert cfg.nx is None and cfg.rank is None

    def test_negative_epsilon_names_key_and_line(self):
        with pytest.raises(ConfigError, match="line 3.*epsilon"):
            parse_config("scenario = rectangular_pulse\nscheme = full\nepsilon = -1")

    # eps^2 overflowed from 1.4e154, and eps^2 / dt from 1e150 at t_end = 1e-13
    @pytest.mark.parametrize("epsilon", ["1.3e154", "1.4e154", "1e200"])
    def test_epsilon_whose_square_overflows_names_key_and_line(self, epsilon):
        with pytest.raises(ConfigError,
                           match=r"line 3: key 'epsilon': must be strictly positive and at most"):
            parse_config(f"scenario = rectangular_pulse\nscheme = full\nepsilon = {epsilon}")

    def test_fixed_rank_run(self):
        cfg = parse_config("scenario = rectangular_pulse\nscheme = bug_fixed\nrank = 15")
        assert cfg.rank == 15

    def test_unknown_key_names_line(self):
        with pytest.raises(ConfigError, match="line 2: unknown key 'wavelength'"):
            parse_config("scheme = full\nwavelength = 3\nscenario = absorber")

    # the schemes implement the linear closure B = a c T only: no key selects an emission law
    @pytest.mark.parametrize("value", ["linear", "stefan_boltzmann"])
    def test_emission_key_names_line(self, value):
        with pytest.raises(ConfigError, match="line 2: unknown key 'emission'"):
            parse_config(f"scheme = full\nemission = {value}\nscenario = absorber")

    # every run steps at the energy-stability bound: no key sets or scales the step
    @pytest.mark.parametrize("key", ["dt", "cfl_safety"])
    def test_step_size_keys_name_line(self, key):
        with pytest.raises(ConfigError, match=f"^line 3: unknown key '{key}'$"):
            parse_config(f"scenario = absorber\nscheme = full\n{key} = 0.5\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("scheme = full\nscheme = rosseland\nscenario = absorber")

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("# config\n\nscenario = absorber  # trailing\nscheme = rosseland\n")
        assert cfg.scenario == "absorber"
        assert cfg.scheme == "rosseland"

    def test_unparsable_value(self):
        with pytest.raises(ConfigError, match="nx"):
            parse_config("scenario = absorber\nscheme = full\nnx = many")

    def test_missing_scheme(self):
        with pytest.raises(ConfigError, match="scheme"):
            parse_config("scenario = absorber")

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("key", ["epsilon", "theta_rel", "t_end"])
    def test_non_finite_float_names_key_and_line(self, key, value):
        # t_end = inf would run zero steps, theta_rel = nan would never truncate
        with pytest.raises(ConfigError, match=f"line 3: key '{key}': must be finite"):
            parse_config(f"scenario = absorber\nscheme = full\n{key} = {value}\n")

    @pytest.mark.parametrize("value", ["1e-15", "1e-14", "0.0", "-0.5"])
    def test_t_end_that_takes_no_step_names_key_and_line(self, value):
        # a run is finished from t_end - 1e-14 max(t_end, 1) on, which is <= 0 here
        with pytest.raises(ConfigError, match="line 3: key 't_end': must exceed 1e-14"):
            parse_config(f"scenario = absorber\nscheme = full\nt_end = {value}\n")

    @pytest.mark.parametrize("scheme", ["bug_fixed", "bug_adaptive"])
    @pytest.mark.parametrize("grid, most", [
        ("nx = 41\nn_moments = 8", 8),    # min(nx + 1, n_moments) = 8
        ("epsilon = 1e-5\nnx = 5", 6),    # 100 moments by default
        ("epsilon = 1e-5\nn_moments = 300", 202),  # 201 diffusive cells by default
    ])
    def test_rank_beyond_the_grid_names_key_and_line(self, scheme, grid, most):
        text = f"scenario = absorber\nscheme = {scheme}\n{grid}\nrank = {{}}\n"
        with pytest.raises(ConfigError, match="line 5: key 'rank'"):
            parse_config(text.format(most + 1))
        assert parse_config(text.format(most)).rank == most

    # both were accepted here once and then failed when the run started, naming no key
    def test_default_rank_beyond_the_moments_names_the_key(self):
        text = "scenario = absorber\nscheme = bug_fixed\nnx = 20\nn_moments = 8\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert str(err.value) == ("key 'rank': must be between 1 and min(nx + 1, n_moments) = 8"
                                  " (scenario default 15; set it)")
        assert parse_config(text + "rank = 8\n").rank == 8
        assert parse_config(text.replace("bug_fixed", "full")).rank is None

    def test_adaptive_scheme_needs_two_moments(self):
        text = "scenario = absorber\nscheme = {}\nnx = 20\nn_moments = 1\n"
        with pytest.raises(ConfigError, match="^line 4: key 'n_moments': bug_adaptive needs"):
            parse_config(text.format("bug_adaptive"))
        assert parse_config(text.format("full")).n_moments == 1


class TestRunSimulation:
    def test_writes_history_and_profiles(self, tmp_path):
        cfg = parse_config(DESK.format(scheme="full", epsilon="1.0", out=tmp_path))
        assert run_simulation(cfg) == 0
        header, rows = read_rows(tmp_path / "history.csv")
        assert header == HISTORY_HEADER
        assert len(rows) >= 3
        assert all(len(r) == 7 for r in rows)
        header, rows = read_rows(tmp_path / "profiles.csv")
        assert header == PROFILES_HEADER
        assert len(rows) == 40
        # every value is written as the shortest decimal that reads back bit for bit
        assert all(v == repr(float(v)) for row in rows for v in row)

    def test_final_time_is_exact(self, tmp_path):
        cfg = parse_config(DESK.format(scheme="full", epsilon="1.0", out=tmp_path))
        run_simulation(cfg)
        _, rows = read_rows(tmp_path / "history.csv")
        assert float(rows[-1][0]) == pytest.approx(0.2, abs=1e-14)

    def test_deterministic_output(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            cfg = parse_config(DESK.format(scheme="bug_adaptive", epsilon="1.0", out=out))
            run_simulation(cfg)
        assert (out_a / "history.csv").read_bytes() == (out_b / "history.csv").read_bytes()
        assert (out_a / "profiles.csv").read_bytes() == (out_b / "profiles.csv").read_bytes()

    def test_adaptive_rank_column_starts_at_two_and_varies(self, tmp_path):
        text = DESK.format(scheme="bug_adaptive", epsilon="1.0", out=tmp_path)
        cfg = parse_config(text.replace("t_end = 0.2", "t_end = 0.4"))
        run_simulation(cfg)
        _, rows = read_rows(tmp_path / "history.csv")
        ranks = [int(r[4]) for r in rows]
        assert ranks[0] == 2
        assert len(set(ranks)) > 1

    def test_absorber_short_run(self, tmp_path):
        cfg = parse_config(
            f"scenario = absorber\nscheme = full\nnx = 64\nn_moments = 8\n"
            f"epsilon = 1.0\nt_end = 0.3\noutput_dir = {tmp_path}\n")
        assert run_simulation(cfg) == 0
        _, rows = read_rows(tmp_path / "history.csv")
        energies = [float(r[1]) for r in rows]
        assert all(b <= a * (1 + 1e-12) for a, b in zip(energies, energies[1:]))
        assert all(float(r[3]) <= 1e-10 for r in rows)

    def test_rosseland_profile_spreads_monotonically(self, tmp_path):
        cfg = parse_config(DESK.format(scheme="rosseland", epsilon="1e-5", out=tmp_path))
        run_simulation(cfg)
        _, rows = read_rows(tmp_path / "profiles.csv")
        T = np.array([float(r[1]) for r in rows])
        assert T.max() < 200.0
        assert np.all(T >= -1e-12)
        x = np.array([float(r[0]) for r in rows])
        # peak stays in the middle, wings have warmed up
        assert abs(x[np.argmax(T)]) <= 0.5
        wings = (np.abs(x) > 0.5) & (np.abs(x) < 1.5)
        assert T[wings].min() > 0.0

    def test_history_stride(self, tmp_path):
        text = DESK.format(scheme="full", epsilon="1.0", out=tmp_path) + "history_stride = 5\n"
        cfg = parse_config(text)
        run_simulation(cfg)
        _, rows = read_rows(tmp_path / "history.csv")
        cfg_dense = parse_config(DESK.format(scheme="full", epsilon="1.0", out=tmp_path / "d"))
        run_simulation(cfg_dense)
        _, rows_dense = read_rows(tmp_path / "d" / "history.csv")
        assert len(rows) < len(rows_dense)
        assert float(rows[-1][0]) == pytest.approx(0.2, abs=1e-14)


class TestOutputContract:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_history_rows_hold_python_numbers(self, scheme):
        # the kinetic pulse on 201 cells: the Rosseland step is set by its parabolic bound
        config = RunConfig(scenario="rectangular_pulse", scheme=scheme, nx=201, n_moments=6,
                           epsilon=1.0, rank=3, t_end=0.05)
        result = _run(config)
        if scheme == "rosseland":
            assert result.dt_used < result.cfl_dt
        assert type(result.cfl_dt) is float and type(result.dt_used) is float
        assert len(result.history) >= 3
        for row in result.history:
            assert [type(v) for v in row] == [float, float, float, float, int, float, int]

    @staticmethod
    def values(n):
        """Finite doubles from random bit patterns, plus the edges of repr's formats."""
        bits = np.random.default_rng(20).integers(0, 2**64, size=n, dtype=np.uint64)
        drawn = bits.view(np.float64)
        edges = np.array([0.0, 1e-4, 9.999999999999999e-05, 1e16, 9999999999999998.0,
                          5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 0.1, 1.0])
        values = np.concatenate([edges, -edges, drawn[np.isfinite(drawn)]])
        return values[:values.size - values.size % 4].reshape(-1, 4)

    def test_writers_emit_the_shortest_round_trip_text(self, tmp_path):
        # numpy float64 inputs are written as the shortest decimal that reads back
        # bit for bit, the text repr gives a Python float
        table = self.values(400)
        history = [(np.float64(a), b, np.float64(c), d, 3, np.float64(a), 0)
                   for a, b, c, d in table.tolist()]
        grid = StaggeredGrid(X_MIN, X_MAX, table.shape[0])
        result = RunResult(grid=grid, macro=MacroState(table[:, 1], table[:, 3]),
                           phi=table[:, 2], history=history, cfl_dt=1.0, dt_used=1.0)
        _write_result(result, tmp_path)
        comparison = [("full", "rosseland", np.float64(a), np.float64(b))
                      for a, b in table[:, :2].tolist()]
        _write_csv(tmp_path / "comparison.csv", COMPARISON_HEADER, comparison)

        def text(v):
            return v if isinstance(v, str) else str(v) if isinstance(v, int) else repr(float(v))

        profiles = np.column_stack([grid.centers, table[:, 1], table[:, 2], table[:, 3]])
        for name, header, rows in (("history.csv", HISTORY_HEADER, history),
                                   ("profiles.csv", PROFILES_HEADER, profiles.tolist()),
                                   ("comparison.csv", COMPARISON_HEADER, comparison)):
            lines = (tmp_path / name).read_text(encoding="utf-8").splitlines()
            assert lines == [header] + [",".join(text(v) for v in row) for row in rows]


class TestSimulate:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_matches_run_subcommand(self, tmp_path, scheme):
        # the run subcommand writes one history row per step of simulate() at the
        # printed bound, and the final profiles are its last state, bit for bit
        path = tmp_path / "case.cfg"
        path.write_text(
            f"scenario = absorber\nscheme = {scheme}\nnx = 41\nn_moments = 8\n"
            f"epsilon = 1.0\nrank = 3\ntheta_rel = 0.05\nt_end = 0.3\n"
            f"output_dir = {tmp_path}\n")
        printed = io.StringIO()
        assert main(["run", str(path)], out=printed) == 0
        lines = printed.getvalue().splitlines()
        cfl_dt = float(lines[0].removeprefix("cfl_dt = "))
        assert lines[1] == f"dt = {cfl_dt}"  # on 41 cells the parabolic bound is looser
        _, history = read_rows(tmp_path / "history.csv")
        _, profiles = read_rows(tmp_path / "profiles.csv")

        ws, macro0 = build_problem("absorber", 41, 8, 1.0)
        states = list(simulate(scheme, macro0, ws, cfl_dt, 0.3,
                               rank=3, theta_rel=0.05))
        assert states[0][:3] == (0.0, 0.0, macro0)
        # three steps at the bound and a shorter last one
        assert len(history) == len(states) - 1 == 4
        m0 = mass(macro0, ws)
        for row, (t, dt_step, macro, micro) in zip(history, states[1:]):
            m_n = mass(macro, ws)
            assert [float(v) for v in row[:6]] == [
                t, energy(macro, micro.micro_norm_sq(ws.grid.dx), ws), m_n,
                relative_mass_error(m_n, m0), getattr(micro, "rank", 0), dt_step]
        final = states[-1][2]
        columns = np.array(profiles, dtype=float).T
        np.testing.assert_array_equal(columns[1], final.temperature)
        np.testing.assert_array_equal(columns[3], final.h_meso)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_starts_from_zero_micro_moments(self, scheme):
        # every run starts at equilibrium: the first state simulate yields has no
        # micro moments, and the dense one is +0 in each of its N + 1 nodal columns
        nx, n_mom = 17, 6
        ws, macro0 = build_problem("absorber", nx, n_mom, 1.0)
        t, dt_step, macro, micro = next(simulate(scheme, macro0, ws, 0.01, 0.1, rank=2))
        assert (t, dt_step, macro) == (0.0, 0.0, macro0)
        assert micro.micro_norm_sq(ws.grid.dx) == 0.0
        if scheme == "full":
            g = micro.g_matrix
            assert g.shape == (nx + 1, n_mom + 1)
            assert not np.signbit(g).any()

    @pytest.mark.parametrize("scheme", ["full", "bug_fixed", "bug_adaptive"])
    def test_mass_changes_by_the_boundary_outflow(self, scheme):
        # zero ghosts: the interior fluxes of the first moment cancel in the sum,
        # so each step changes the mass by -(|P1| / 2) dt (g1[n] - g1[0]) of the
        # new first moment; the pulse reaches both ends of the slab by t = 12
        nx, n_mom = 41, 8
        ws, macro0 = build_problem("rectangular_pulse", nx, n_mom, 1.0)
        dt = cfl_report(ws)[0]
        pin = ws.angular.pin
        m_prev = m0 = mass(macro0, ws)
        worst = outflow = 0.0
        for _, dt_step, macro, micro in list(simulate(scheme, macro0, ws,
                                                      dt, 12.0, rank=5, theta_rel=5e-2))[1:]:
            if scheme == "full":
                g1 = micro.g_matrix @ pin
            else:
                g1 = micro.X_basis @ (micro.S_coeff @ (micro.V_basis.T @ pin))
            change = -0.5 * NORM_P1 * dt_step * (g1[-1] - g1[0])
            m_now = mass(macro, ws)
            worst = max(worst, abs(m_now - m_prev - change))
            outflow -= change
            m_prev = m_now
        assert worst <= 1e-13 * m0
        assert outflow >= 1e-3 * m0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_non_finite_state_aborts_naming_the_step(self, scheme):
        # a pulse of 1.6e308, just below the largest double: the first temperature
        # gradient overflows, the state containers (and ap_truncate, before its SVD)
        # reject the non-finite result, and simulate names the step and the cause
        ws, macro0 = build_problem("rectangular_pulse", 41, 8)
        macro = MacroState(8e305 * macro0.temperature, macro0.h_meso)
        dt = cfl_report(ws)[0]
        with pytest.raises(RuntimeError,
                           match=r"simulation aborted at step 1: .*non-finite entries"):
            for _ in simulate(scheme, macro, ws, dt, 1.5, rank=3,
                              theta_rel=5e-2):
                pass

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_dense_state_aborts_naming_the_step(self):
        # the dense step checks its new g, with the norm it summed in cache, before
        # it makes the macro state, so the run names the micro state
        ws, macro0 = build_problem("rectangular_pulse", 41, 8)
        macro = MacroState(8e305 * macro0.temperature, macro0.h_meso)
        with pytest.raises(RuntimeError, match=r"simulation aborted at step 1: "
                                               r"micro state contains non-finite entries"):
            for _ in simulate("full", macro, ws, cfl_report(ws)[0], 1.5):
                pass


class TestCliEntrypoints:
    def write_config(self, tmp_path, text):
        path = tmp_path / "case.cfg"
        path.write_text(text)
        return str(path)

    def test_cfl_subcommand(self, tmp_path, capsys):
        path = self.write_config(
            tmp_path, "scenario = rectangular_pulse\nscheme = full\nepsilon = 1.0\n")
        assert main(["cfl", path]) == 0
        out = capsys.readouterr().out
        dt = float(out.split("cfl_dt = ")[1].splitlines()[0])
        node = float(out.split("minimizing_node = ")[1].splitlines()[0])
        assert abs(dt - 0.005) <= 0.0005
        assert abs(node - (-0.999719)) <= 1e-3

    def test_run_subcommand_twice_identical(self, tmp_path, capsys):
        out_dir = tmp_path / "runout"
        path = self.write_config(tmp_path, DESK.format(scheme="full", epsilon="1.0", out=out_dir))
        assert main(["run", path]) == 0
        first = (out_dir / "history.csv").read_bytes()
        assert main(["run", path]) == 0
        assert (out_dir / "history.csv").read_bytes() == first
        assert "cfl_dt = " in capsys.readouterr().out

    def test_sweep_subcommand(self, tmp_path):
        out_dir = tmp_path / "sweep"
        path = self.write_config(
            tmp_path,
            f"scenario = rectangular_pulse\nscheme = full\nnx = 40\nn_moments = 6\n"
            f"epsilon = 1e-5\nt_end = 0.1\nrank = 1\noutput_dir = {out_dir}\n")
        assert main(["sweep", path]) == 0
        header, rows = read_rows(out_dir / "comparison.csv")
        assert header == COMPARISON_HEADER
        assert len(rows) == 6  # all unordered pairs of four schemes
        for scheme in ("full", "bug_fixed", "bug_adaptive", "rosseland"):
            assert (out_dir / scheme / "profiles.csv").exists()
        against_reference = {(r[0], r[1]): float(r[2]) for r in rows}
        for scheme in ("full", "bug_fixed", "bug_adaptive"):
            assert against_reference[(scheme, "rosseland")] <= 1e-3

    @pytest.mark.parametrize("scheme, n_moments, message", [
        ("bug_fixed", 8, "error: key 'rank': must be between 1 and min(nx + 1, n_moments) = 8"
                         " (scenario default 15; set it)"),
        ("bug_adaptive", 1, "error: line 4: key 'n_moments': bug_adaptive needs at least 2"),
    ], ids=["bug_fixed", "bug_adaptive"])
    def test_run_refuses_a_config_it_cannot_start(self, tmp_path, capsys, scheme, n_moments,
                                                  message):
        out_dir = tmp_path / "out"
        path = self.write_config(
            tmp_path, f"scenario = absorber\nscheme = {scheme}\nnx = 20\n"
                      f"n_moments = {n_moments}\noutput_dir = {out_dir}\n")
        assert main(["run", path]) == 1
        assert message in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("schemes, n_moments, message", [
        ("full,bug_fixed", 8, "error: scheme bug_fixed: key 'rank': must be between 1 and"),
        ("full,bug_adaptive,rosseland", 1,
         "error: scheme bug_adaptive: key 'n_moments': bug_adaptive needs at least 2"),
    ], ids=["bug_fixed", "bug_adaptive"])
    def test_sweep_refuses_before_any_scheme_runs(self, tmp_path, capsys, schemes, n_moments,
                                                  message):
        # `full` comes first and can start: it must not run or write either
        out_dir = tmp_path / "sweep"
        path = self.write_config(
            tmp_path, f"scenario = absorber\nscheme = full\nnx = 20\n"
                      f"n_moments = {n_moments}\noutput_dir = {out_dir}\n")
        assert main(["sweep", path, "--schemes", schemes]) == 1
        assert message in capsys.readouterr().err
        assert not out_dir.exists()

    # `--schemes ,` once ran nothing and wrote a header-only comparison.csv, and
    # `--schemes full,full` ran full twice into one directory and compared it with itself
    @pytest.mark.parametrize("schemes, message", [
        (",", "error: --schemes: no scheme given"),
        ("", "error: --schemes: no scheme given"),
        ("full,full", "error: --schemes: full named more than once"),
        ("rosseland, full ,rosseland,full", "error: --schemes: full,rosseland named more than once"),
    ])
    def test_sweep_refuses_an_empty_or_repeating_scheme_list(self, tmp_path, capsys, schemes,
                                                            message):
        out_dir = tmp_path / "sweep"
        path = self.write_config(
            tmp_path, f"scenario = absorber\nscheme = full\nnx = 20\nn_moments = 4\n"
                      f"output_dir = {out_dir}\n")
        assert main(["sweep", path, "--schemes", schemes]) == 1
        assert message in capsys.readouterr().err
        assert not out_dir.exists()

    def test_sweep_names_an_unknown_scheme(self, tmp_path, capsys):
        # the error once blamed the config's valid `scheme` key instead of the typo
        out_dir = tmp_path / "sweep"
        path = self.write_config(
            tmp_path, f"scenario = absorber\nscheme = full\nnx = 20\nn_moments = 4\n"
                      f"output_dir = {out_dir}\n")
        assert main(["sweep", path, "--schemes", "full,fulll"]) == 1
        assert capsys.readouterr().err.startswith("error: --schemes: unknown scheme 'fulll' (")
        assert not out_dir.exists()

    def test_run_refuses_an_epsilon_whose_square_overflows(self, tmp_path, capsys):
        # at eps = 1.4e154 every scheme died with an uncaught OverflowError from eps**2
        out_dir = tmp_path / "out"
        path = self.write_config(
            tmp_path, f"scenario = absorber\nscheme = full\nepsilon = 1.4e154\n"
                      f"output_dir = {out_dir}\n")
        assert main(["run", path]) == 1
        assert "error: line 3: key 'epsilon': must be strictly positive and at most 1e+100" \
            in capsys.readouterr().err
        assert not out_dir.exists()

    def test_sweep_refuses_a_t_end_that_takes_no_step(self, tmp_path, capsys):
        out_dir = tmp_path / "sweep"
        path = self.write_config(
            tmp_path, f"scenario = absorber\nscheme = full\nnx = 20\nn_moments = 4\n"
                      f"t_end = 1e-15\noutput_dir = {out_dir}\n")
        assert main(["sweep", path]) == 1
        assert "error: line 5: key 't_end': must exceed 1e-14" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_shortest_accepted_t_end_takes_one_step(self, tmp_path, capsys):
        path = self.write_config(
            tmp_path, f"scenario = absorber\nscheme = full\nnx = 20\nn_moments = 4\n"
                      f"t_end = 2e-14\noutput_dir = {tmp_path}\n")
        assert main(["run", path]) == 0
        _, rows = read_rows(tmp_path / "history.csv")
        assert [(row[0], row[5]) for row in rows] == [("2e-14", "2e-14")]

    def test_config_saved_with_a_byte_order_mark_reads_as_without_it(self, tmp_path, capsys):
        # some editors save UTF-8 with a BOM, which would otherwise start the first key
        def write(name, prefix):
            text = DESK.format(scheme="full", epsilon="1.0", out=tmp_path / name).lstrip()
            path = tmp_path / f"{name}.cfg"
            path.write_text(prefix + text, encoding="utf-8")
            return str(path)

        plain, marked = write("plain", ""), write("marked", "\ufeff")
        assert Path(marked).read_bytes().startswith(b"\xef\xbb\xbf")
        printed = []
        for path in (plain, marked):
            assert main(["cfl", path]) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]
        assert main(["run", plain]) == 0 and main(["run", marked]) == 0
        for name in ("history.csv", "profiles.csv"):
            plain_csv, marked_csv = (tmp_path / side / name for side in ("plain", "marked"))
            assert marked_csv.read_bytes() == plain_csv.read_bytes()

    def test_usage_error_nonzero_exit(self):
        assert main(["frobnicate"]) != 0

    def test_missing_file_reports_error(self, capsys):
        assert main(["run", "/nonexistent/path.cfg"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_directory_path_reports_error(self, tmp_path, capsys):
        # reading a directory raises IsADirectoryError, an OSError
        assert main(["run", str(tmp_path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_config_reports_error(self, tmp_path, capsys):
        path = self.write_config(tmp_path, "scenario = nowhere\nscheme = full\n")
        assert main(["run", path]) == 1
        assert "scenario" in capsys.readouterr().err

    def test_emission_config_reports_line_and_key(self, tmp_path, capsys):
        path = self.write_config(
            tmp_path, "scenario = absorber\nscheme = rosseland\nemission = stefan_boltzmann\n")
        assert main(["run", path]) == 1
        assert "line 3: unknown key 'emission'" in capsys.readouterr().err

    # zero ghost cells are the only boundary condition: no key selects one
    @pytest.mark.parametrize("value", ["periodic", "zero_ghost"])
    def test_bc_config_reports_line_and_key(self, tmp_path, capsys, value):
        path = self.write_config(tmp_path, f"scenario = absorber\nscheme = full\nbc = {value}\n")
        assert main(["run", path]) == 1
        assert "line 3: unknown key 'bc'" in capsys.readouterr().err


SHIPPED_CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.cfg"))


class TestShippedConfigs:
    def test_the_configs_are_found(self):
        # an empty glob would leave the parametrized test below with no cases
        assert [p.stem for p in SHIPPED_CONFIGS] == [
            "absorber_diffusive", "absorber_kinetic", "pulse_diffusive", "pulse_kinetic"]

    @pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: p.stem)
    def test_parses_and_reports_its_step_bound(self, path, capsys):
        # the shipped configs fit the schema of the linear closure: no emission key
        assert main(["cfl", str(path)]) == 0
        assert float(capsys.readouterr().out.split("cfl_dt = ")[1].splitlines()[0]) > 0.0
