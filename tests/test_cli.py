"""End-to-end tests of the command-line interface (mostly in-process)."""

import json
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from doubleshot import cli
from doubleshot.errors import NumericalError
from doubleshot.hamiltonians import IsingSpec, build_ising, builtin_text
from doubleshot.pauli import parse_observable, serialize_observable


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
README = PYPROJECT.with_name("README.md")

# What the installer's generated console-script wrapper does: import the
# declared ``module:attr`` target, then ``sys.exit`` with its return value.
WRAPPER = """
import importlib
import sys

module_name, _, attr = sys.argv.pop(1).partition(":")
target = getattr(importlib.import_module(module_name), attr)
sys.argv[0] = "doubleshot"
sys.exit(target())
"""


def run_cli(*argv):
    return cli.main(list(argv))


def declared_console_script(name: str) -> str:
    """The ``[project.scripts]`` target declared for ``name`` in pyproject.toml."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as fh:
        return tomllib.load(fh)["project"]["scripts"][name]


class TestGenIsing:
    def test_builtin_is_byte_verbatim(self, tmp_path):
        out = tmp_path / "obs.txt"
        assert run_cli("gen-ising", "--builtin", "ising-1x2", "--out", str(out)) == 0
        assert out.read_text(encoding="utf-8") == builtin_text("ising-1x2")

    def test_builtin_to_stdout(self, capsys):
        assert run_cli("gen-ising", "--builtin", "toy-fig1") == 0
        assert capsys.readouterr().out == builtin_text("toy-fig1")

    def test_random_generates_full_lattice(self, tmp_path):
        out = tmp_path / "rand.txt"
        code = run_cli(
            "gen-ising", "--random", "--nx", "1", "--ny", "2",
            "--seed", "0", "--out", str(out),
        )
        assert code == 0
        obs = parse_observable(out.read_text())
        assert obs.num_terms == 15

    def test_random_is_seed_deterministic(self, tmp_path):
        first = tmp_path / "a.txt"
        second = tmp_path / "b.txt"
        for path in (first, second):
            assert run_cli(
                "gen-ising", "--random", "--nx", "2", "--ny", "2",
                "--seed", "4", "--out", str(path),
            ) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_coefficients_file(self, tmp_path):
        spec = IsingSpec(
            nx=1,
            ny=2,
            field_z=(1.0, 0.9),
            local_fields=((0.1, -0.05, 0.02), (0.04, 0.03, -0.01)),
            coupling=(0.4,),
            tensor_blocks=(
                (0.01, 0.02, 0.03, 0.02, 0.05, 0.06, 0.03, 0.06, 0.09),
            ),
        )
        coeff_path = tmp_path / "spec.json"
        coeff_path.write_text(spec.to_json())
        out = tmp_path / "obs.txt"
        assert run_cli(
            "gen-ising", "--coefficients", str(coeff_path), "--out", str(out)
        ) == 0
        assert out.read_text() == serialize_observable(build_ising(spec))

    def test_requires_exactly_one_source(self):
        assert run_cli("gen-ising") == 2
        assert run_cli("gen-ising", "--builtin", "toy-fig1", "--random") == 2

    def test_random_requires_dimensions(self):
        assert run_cli("gen-ising", "--random") == 2
        assert run_cli("gen-ising", "--random", "--nx", "2") == 2

    def test_dimensions_go_only_with_random(self, tmp_path, capsys):
        coeff_path = tmp_path / "spec.json"
        spec = IsingSpec(
            nx=1, ny=1, field_z=(1.0,), local_fields=((0.1, 0.2, 0.3),),
            coupling=(), tensor_blocks=(),
        )
        coeff_path.write_text(spec.to_json())
        for source in (("--builtin", "ising-1x2"), ("--coefficients", str(coeff_path))):
            for sizes in (("--nx", "5", "--ny", "5"), ("--ny", "2")):
                assert run_cli("gen-ising", *source, *sizes) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "only with it" in captured.err

    def test_bad_coefficient_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{]")
        assert run_cli("gen-ising", "--coefficients", str(bad)) == 2


class TestReference:
    def test_single_z_ground_state(self, tmp_path, capsys):
        obs_path = tmp_path / "z.txt"
        obs_path.write_text("1.0 Z\n")
        assert run_cli("reference", "--observable", str(obs_path)) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["exact_mean"] == pytest.approx(-1.0, abs=1e-12)
        assert payload["ground_state_energy"] == pytest.approx(-1.0, abs=1e-12)
        assert payload["terms"][0]["theta"] == pytest.approx(0.0, abs=1e-12)

    def test_singlet_thetas_not_negative(self, tmp_path, capsys):
        # <XX> = <ZZ> = -1 on the ground state rounds to theta = -1.1e-16
        obs_path = tmp_path / "xx_zz.txt"
        obs_path.write_text("1.0 XX\n1.0 ZZ\n")
        assert run_cli("reference", "--observable", str(obs_path)) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [t["theta"] for t in payload["terms"]] == [0.0, 0.0]
        assert [t["phi"] for t in payload["terms"]] == [1.0, 1.0]

    def test_toy_on_state_file(self, tmp_path, capsys):
        state_path = tmp_path / "state.txt"
        state_path.write_text("1 0\n0 0\n0 0\n0 0\n")
        code = run_cli(
            "reference", "--builtin", "toy-fig1", "--state", str(state_path)
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        # On |00>: only the ZZ term has a definite (+1) outcome; the four
        # X/Y terms are unbiased, so the exact mean is 1.
        assert payload["exact_mean"] == pytest.approx(1.0, abs=1e-12)
        assert payload["state_source"] == str(state_path)

    def test_pinned_ising_1x2_ground_energy(self, capsys):
        assert run_cli("reference", "--builtin", "ising-1x2") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ground_state_energy"] == pytest.approx(
            -1.7917658636527167, abs=1e-12
        )
        assert payload["num_terms"] == 15

    def test_out_file(self, tmp_path):
        out = tmp_path / "ref.json"
        assert run_cli("reference", "--builtin", "toy-fig1", "--out", str(out)) == 0
        payload = json.loads(out.read_text())
        assert payload["exact_mean"] == pytest.approx(-3.0, abs=1e-9)


class TestEstimate:
    def test_regression_pinned_toy_run(self, capsys):
        # Deterministic end-to-end pin: any change to the sampling stream,
        # the chooser, or the posterior defaults shows up here.
        code = run_cli(
            "estimate", "--builtin", "toy-fig1", "--budget", "50", "--seed", "7"
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mean"] == pytest.approx(-2.8015384615384815, rel=1e-12)
        assert payload["variance"] == pytest.approx(0.03464392634465953, rel=1e-12)
        assert payload["m"] == 50
        assert payload["m_double"] == 0
        assert payload["m_eff"] == 50
        assert payload["budget"] == 50
        assert payload["seed"] == 7

    def test_budget_two_trivial_observable(self, tmp_path, capsys):
        obs_path = tmp_path / "z.txt"
        obs_path.write_text("1.0 Z\n")
        assert run_cli(
            "estimate", "--observable", str(obs_path), "--budget", "2"
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["m_eff"] == 2

    def test_identity_only_observable(self, tmp_path, capsys):
        obs_path = tmp_path / "id.txt"
        obs_path.write_text("0.5 II\n")
        assert run_cli(
            "estimate", "--observable", str(obs_path), "--budget", "10"
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mean"] == 0.5
        assert payload["variance"] == 0.0
        assert payload["m"] == 0
        assert payload["m_eff"] == 0

    def test_no_double_flag(self, capsys):
        code = run_cli(
            "estimate", "--builtin", "ising-1x2", "--budget", "30",
            "--seed", "1", "--no-double",
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["m_double"] == 0
        assert payload["m"] == 30

    def test_writes_report_and_trace(self, tmp_path):
        out = tmp_path / "report.json"
        trace = tmp_path / "trace.csv"
        code = run_cli(
            "estimate", "--builtin", "toy-fig1", "--budget", "12",
            "--seed", "3", "--out", str(out), "--trace-out", str(trace),
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["m_eff"] == 12
        lines = [
            line for line in trace.read_text().splitlines()
            if line and not line.startswith("#")
        ]
        # Header plus one row per executed action.
        assert len(lines) == 1 + payload["m"]
        assert lines[0] == "step,kind,group,predicted_variance,realized_variance,m,m_double"

    def test_bit_reproducible(self, tmp_path):
        paths = []
        for tag in ("one", "two"):
            out = tmp_path / f"report_{tag}.json"
            trace = tmp_path / f"trace_{tag}.csv"
            code = run_cli(
                "estimate", "--builtin", "toy-fig1", "--budget", "20",
                "--seed", "9", "--out", str(out), "--trace-out", str(trace),
            )
            assert code == 0
            paths.append((out, trace))
        assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
        assert paths[0][1].read_bytes() == paths[1][1].read_bytes()


class TestCurveCommand:
    def test_writes_expected_grid(self, tmp_path):
        out = tmp_path / "curve.csv"
        code = run_cli(
            "curve", "--builtin", "toy-fig1", "--budgets", "5", "8",
            "--reps", "1", "--out", str(out),
        )
        assert code == 0
        from doubleshot.experiments import read_csv

        doc = read_csv(out)
        assert [(r["budget"], r["arm"]) for r in doc.rows] == [
            ("5", "double_on"),
            ("8", "double_on"),
            ("5", "double_off"),
            ("8", "double_off"),
        ]

    def test_rejects_unsorted_budgets(self, tmp_path):
        out = tmp_path / "curve.csv"
        code = run_cli(
            "curve", "--builtin", "toy-fig1", "--budgets", "8", "5",
            "--reps", "1", "--out", str(out),
        )
        assert code == 2
        assert not out.exists()


class TestCalibrateCommand:
    def test_writes_rows_and_summary(self, tmp_path):
        out = tmp_path / "cal.csv"
        code = run_cli(
            "calibrate", "--builtin", "toy-fig1", "--budget", "6",
            "--reps", "2", "--out", str(out),
        )
        assert code == 0
        from doubleshot.experiments import read_csv

        doc = read_csv(out)
        assert len(doc.rows) == 2
        assert doc.comment_value("flagged_rows") == "0"
        float(doc.comment_value("summary_mean_z"))
        float(doc.comment_value("summary_rms_z"))

    def test_estimate_is_repetition_zero(self, tmp_path, capsys):
        # `estimate --seed S` runs stream (S, 0) alone; inside `calibrate` it
        # is repetition 0 of a lockstep cohort, with the same bits.
        args = ("--builtin", "ising-1x2", "--budget", "60", "--seed", "5")
        assert run_cli("estimate", *args) == 0
        payload = json.loads(capsys.readouterr().out)
        out = tmp_path / "cal.csv"
        assert run_cli("calibrate", *args, "--reps", "2", "--out", str(out)) == 0
        from doubleshot.experiments import read_csv

        row = read_csv(out).rows[0]
        assert float(row["estimate"]) == payload["mean"]
        assert float(row["claimed_variance"]) == payload["variance"]
        assert int(row["m"]) == payload["m"]
        assert int(row["m_double"]) == payload["m_double"]


class TestDoubleUsageCommand:
    def test_no_double_slope_is_zero(self, tmp_path):
        out = tmp_path / "usage.csv"
        code = run_cli(
            "double-usage", "--builtin", "toy-fig1", "--budget", "25",
            "--reps", "1", "--no-double", "--out", str(out),
        )
        assert code == 0
        from doubleshot.experiments import read_csv

        doc = read_csv(out)
        assert len(doc.rows) == 25
        assert float(doc.comment_value("fit_slope")) == 0.0
        assert doc.comment_value("fit_window_min_exclusive") == "20"


class TestExitCodes:
    def test_missing_required_argument(self):
        assert run_cli("estimate", "--builtin", "toy-fig1") == 2

    def test_unknown_subcommand(self):
        assert run_cli("frobnicate") == 2

    def test_missing_observable_source(self):
        assert run_cli("estimate", "--budget", "5") == 2

    def test_nonexistent_observable_file(self, tmp_path):
        missing = tmp_path / "nope.txt"
        assert run_cli(
            "estimate", "--observable", str(missing), "--budget", "5"
        ) == 2

    def test_width_over_cap_is_resource_error(self, tmp_path):
        obs_path = tmp_path / "wide.txt"
        obs_path.write_text("1.0 " + "Z" * 11 + "\n")
        assert run_cli("reference", "--observable", str(obs_path)) == 4

    def test_raised_max_qubits_allows_wider_observables(self, tmp_path, capsys):
        obs_path = tmp_path / "wide.txt"
        obs_path.write_text("1.0 " + "Z" * 11 + "\n")
        code = run_cli(
            "reference", "--observable", str(obs_path), "--max-qubits", "11"
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ground_state_energy"] == pytest.approx(-1.0, abs=1e-9)

    @pytest.mark.parametrize(
        "argv",
        [
            (*run, *flag)
            for run in (
                ("estimate", "--budget", "10"),
                ("curve", "--budgets", "10", "--reps", "1"),
                ("calibrate", "--budget", "10", "--reps", "1"),
                ("double-usage", "--budget", "10", "--reps", "1"),
            )
            for flag in ((), ("--no-double",))
        ]
        + [("reference",)],
        ids=lambda argv: argv[0] + ("-no-double" if "--no-double" in argv else ""),
    )
    def test_file_state_wider_than_cap_is_resource_error(self, tmp_path, argv):
        # a 3-qubit amplitude file under --max-qubits 2: refused before the
        # file is read, whether or not a two-copy shot would be drawn
        obs_path = tmp_path / "obs.txt"
        obs_path.write_text("1.0 ZZZ\n0.5 XII\n")
        state = tmp_path / "state.txt"
        state.write_text(f"{8 ** -0.5!r} 0\n" * 8)
        out = tmp_path / "out"
        code = run_cli(
            *argv, "--observable", str(obs_path), "--state", str(state),
            "--max-qubits", "2", "--out", str(out),
        )
        assert code == 4
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0", "-3", "two"])
    def test_max_qubits_below_one_is_a_usage_error(self, tmp_path, capsys, value):
        # rejected while parsing, also where no width check would read it:
        # an amplitude-file state with no two-copy shots
        state = tmp_path / "state.txt"
        state.write_text("1 0\n0 0\n0 0\n0 0\n")
        for argv in (
            ("estimate", "--builtin", "toy-fig1", "--budget", "4"),
            ("estimate", "--builtin", "toy-fig1", "--budget", "4",
             "--state", str(state), "--no-double"),
            ("calibrate", "--builtin", "toy-fig1", "--budget", "4", "--reps", "2",
             "--out", str(tmp_path / "c.csv")),
            ("reference", "--builtin", "toy-fig1"),
        ):
            assert run_cli(*argv, "--max-qubits", value) == 2, argv
            assert "--max-qubits" in capsys.readouterr().err
        assert not (tmp_path / "c.csv").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ("estimate", "--builtin", "toy-fig1", "--budget", "4"),
            ("curve", "--builtin", "toy-fig1", "--budgets", "4", "--reps", "1"),
            ("calibrate", "--builtin", "toy-fig1", "--budget", "4", "--reps", "1"),
            ("double-usage", "--builtin", "toy-fig1", "--budget", "4", "--reps", "1"),
            ("gen-ising", "--random", "--nx", "1", "--ny", "2"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_negative_seed_is_a_usage_error(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert run_cli(*argv, "--seed", "-1", "--out", str(out)) == 2
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()

    def test_numerical_failure_exit_code(self, monkeypatch):
        def boom(args):
            raise NumericalError("injected")

        monkeypatch.setattr(cli, "_cmd_reference", boom)
        assert run_cli("reference", "--builtin", "toy-fig1") == 3

    def test_help_exits_zero(self):
        assert run_cli("--help") == 0


class TestConsoleScript:
    def test_installed_entry_point(self):
        """``python -m doubleshot.cli`` runs the CLI as a script."""
        proc = subprocess.run(
            [sys.executable, "-m", "doubleshot.cli", "gen-ising", "--builtin", "toy-fig1"],
            capture_output=True,
            text=True,
            check=False,
        )
        assert proc.returncode == 0
        assert proc.stdout == builtin_text("toy-fig1")

    def test_console_binary(self):
        """The declared ``doubleshot`` entry point runs ``--help`` as the wrapper would."""
        target = declared_console_script("doubleshot")
        proc = subprocess.run(
            [sys.executable, "-c", WRAPPER, target, "--help"],
            capture_output=True,
            text=True,
            check=False,
        )
        assert proc.returncode == 0, proc.stderr
        assert "usage: doubleshot" in proc.stdout
        assert "gen-ising" in proc.stdout

    @pytest.mark.skipif(
        shutil.which("doubleshot") is None,
        reason="no doubleshot console script on PATH (package not installed)",
    )
    def test_installed_console_binary(self):
        """The installed ``doubleshot`` binary on PATH answers ``--help``."""
        proc = subprocess.run(
            ["doubleshot", "--help"], capture_output=True, text=True, check=False
        )
        assert proc.returncode == 0
        assert "usage: doubleshot" in proc.stdout
        assert "gen-ising" in proc.stdout


def readme_commands() -> list[list[str]]:
    """The arguments of every ``doubleshot`` line in README's bash blocks,
    with backslash continuations joined and ``#`` comments stripped."""
    blocks = re.findall(r"```bash\n(.*?)```", README.read_text(), flags=re.S)
    commands = []
    for block in blocks:
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["doubleshot"]:
                commands.append(words[1:])
    return commands


class TestReadmeCommands:
    def test_every_readme_command_parses(self):
        parser = cli.build_parser()
        commands = readme_commands()
        for argv in commands:
            try:
                parser.parse_args(argv)
            except SystemExit:
                pytest.fail(f"README command does not parse: doubleshot {shlex.join(argv)}")
        assert {argv[0] for argv in commands} == {
            "gen-ising", "reference", "estimate", "curve", "calibrate", "double-usage"
        }
