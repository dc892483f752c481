"""Command-line driver: subcommands, config files, and exit codes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import cutsem
from cutsem import __version__, benchmark
from cutsem.cli import main


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_bar2d_single_run(tmp_path):
    out = tmp_path / "bar.csv"
    rc = main(
        [
            "bar2d",
            "--elements", "4",
            "--order", "3",
            "--cut-fraction", "1.0",
            "--dt", "1e-4",
            "--t-end", "0.3",
            "--out", str(out),
        ]
    )
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "h,order,cut_fraction,scheme,epsilon,dofs,dt,error,wall_time"
    assert len(lines) == 2
    assert ",sem," in lines[1]


def test_bar2d_sweep_with_config(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "[bar2d]\n"
        "elements = 3,4\n"
        "orders = 3\n"
        "cut_fractions = 1.0\n"
        "schemes = fitted\n"
        "dt = 1e-4\n"
        "t_end = 0.3\n"
    )
    out = tmp_path / "sweep.csv"
    rc = main(["bar2d-sweep", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 3  # header + two mesh sizes


def test_bar2d_sweep_missing_config_exits_2(tmp_path):
    rc = main(["bar2d-sweep", "--config", str(tmp_path / "nope.cfg")])
    assert rc == 2


def test_bar2d_sweep_bad_section_exits_2(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[wrong]\nelements = 3\n")
    rc = main(["bar2d-sweep", "--config", str(cfg)])
    assert rc == 2


@pytest.mark.parametrize("line", ["order = 7", "depth = 4"])
def test_bar2d_sweep_unknown_key_exits_2(tmp_path, capsys, line):
    # a misspelt key (order for orders) or a removed one must not be ignored
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(f"[bar2d]\nelements = 3\n{line}\n")
    rc = main(["bar2d-sweep", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert line.split()[0] in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize(
    "lines",
    [
        "schemes = bogus\ncut_fractions = 1.0",
        "orders = 3,99\ncut_fractions = 1.0",
        "schemes = hrz,fitted\nepsilons = 0.01,2.0\ncut_fractions = 0.5",
        "cut_fractions = 0.5,1e-10",
    ],
    ids=["scheme", "order", "epsilon", "sliver"],
)
def test_bar2d_sweep_rejects_a_bad_grid_before_any_cell_runs(tmp_path, monkeypatch, lines):
    # a scheme the conformal cells never use, and cells that would fail only
    # after others had run, are caught with the whole grid
    ran = []
    monkeypatch.setattr(benchmark, "run_bar_case", ran.append)
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(f"[bar2d]\nelements = 3\n{lines}\n")
    out = tmp_path / "x.csv"
    assert main(["bar2d-sweep", "--config", str(cfg), "--out", str(out)]) == 2
    assert ran == [] and not out.exists()


def test_bar2d_h_and_elements_are_exclusive():
    with pytest.raises(SystemExit) as exc:
        main(["bar2d", "--h", "0.5", "--elements", "3"])
    assert exc.value.code == 2


def test_bad_list_value_exits_2():
    assert main(["dtcrit-sweep", "--orders", "x"]) == 2


@pytest.mark.parametrize("flag", ["--orders", "--epsilons"])
def test_dtcrit_sweep_empty_list_exits_2(tmp_path, capsys, flag):
    out = tmp_path / "x.csv"
    assert main(["dtcrit-sweep", flag, "", "--out", str(out)]) == 2
    assert f"{flag} lists no values" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "lines, key",
    [("epsilons =\nschemes = hrz", "epsilons"), ("orders = ,", "orders"), ("elements =", "elements")],
)
def test_bar2d_sweep_empty_list_exits_2(tmp_path, capsys, lines, key):
    # an empty list is a config error, not an IndexError or a header-only CSV
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(f"[bar2d]\n{lines}\n")
    out = tmp_path / "x.csv"
    assert main(["bar2d-sweep", "--config", str(cfg), "--out", str(out)]) == 2
    assert f"{key} lists no values" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--dt", "-1", "dt"),
        ("--dt", "0", "dt"),
        ("--t-end", "0", "t_end"),
        ("--h", "0", "h"),
        ("--h", "inf", "h"),
    ],
)
def test_bar2d_rejects_non_positive_step_and_size(tmp_path, capsys, flag, value, message):
    out = tmp_path / "x.csv"
    size = [] if flag == "--h" else ["--elements", "4"]  # --h and --elements are exclusive
    rc = main(["bar2d", *size, "--order", "2", flag, value, "--out", str(out)])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        ["--dt", "3e-5"],  # 13,333.3 steps: the run would stop short of t_end
        ["--elements", "3", "--dt", "1", "--t-end", "0.001"],  # no step at all
    ],
    ids=["short_of_t_end", "no_step"],
)
def test_bar2d_rejects_t_end_off_the_step_grid(tmp_path, capsys, args):
    out = tmp_path / "x.csv"
    assert main(["bar2d", "--order", "2", *args, "--out", str(out)]) == 2
    assert "whole number of steps" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("fraction, rc", [("1e-11", 2), ("1e-10", 2), ("1e-9", 0)])
def test_bar2d_rejects_a_sliver_cut_column(tmp_path, capsys, fraction, rc):
    # a cut column below the sliver volume ratio gets a void rule: the pulse
    # on its interface would load nothing and the run report error 1
    out = tmp_path / "x.csv"
    args = ["bar2d", "--elements", "4", "--order", "3", "--dt", "1e-4", "--t-end", "0.3"]
    assert main([*args, "--cut-fraction", fraction, "--out", str(out)]) == rc
    if rc == 2:
        assert "cut_fraction" in capsys.readouterr().err and not out.exists()
    else:
        assert float(out.read_text().splitlines()[1].split(",")[7]) != 1.0


def test_numerical_failure_exits_3(tmp_path):
    # a step far above the critical one (1.51 dt_c) must report a numerical
    # failure, within the rod solution's validity
    rc = main(
        [
            "bar2d",
            "--elements", "6",
            "--order", "4",
            "--cut-fraction", "1.0",
            "--dt", "2e-2",
            "--t-end", "1.0",
            "--out", str(tmp_path / "x.csv"),
        ]
    )
    assert rc == 3


@pytest.mark.parametrize(
    "t_end, rc", [("1.3", 2), ("1.25", 2), ("1.2", 2), ("1.0004", 2), ("1.0", 0)]
)
def test_bar2d_rejects_t_end_past_the_rod_solution(tmp_path, capsys, t_end, rc):
    # the rod solution ends at lx / c = 1.0, where the wave front reaches the
    # clamped end: a later t_end is refused before any step runs, not after
    # all of them
    out = tmp_path / "x.csv"
    args = ["bar2d", "--elements", "4", "--order", "3", "--dt", "4e-4", "--t-end", t_end]
    assert main([*args, "--out", str(out)]) == rc
    if rc == 2:
        assert "t_end must not exceed 1.0" in capsys.readouterr().err and not out.exists()


def test_bar2d_sweep_rejects_t_end_past_the_rod_solution(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("[bar2d]\nelements = 3,4\norders = 3\ndt = 1e-4\nt_end = 1.3\n")
    cells = []
    monkeypatch.setattr(benchmark, "run_bar_case", cells.append)
    out = tmp_path / "x.csv"
    assert main(["bar2d-sweep", "--config", str(cfg), "--out", str(out)]) == 2
    assert "t_end must not exceed" in capsys.readouterr().err
    assert cells == [] and not out.exists()


def test_dtcrit_sweep_subcommand(tmp_path):
    out = tmp_path / "dt.csv"
    rc = main(
        [
            "dtcrit-sweep",
            "--orders", "3",
            "--fractions", "0.3,0.7",
            "--schemes", "fitted,scaled",
            "--epsilons", "0.01",
            "--out", str(out),
        ]
    )
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "order,cut_fraction,scheme,epsilon,dt_ratio"
    assert len(lines) == 5


DATA = Path(__file__).parent / "data"


def numeric_cells(path):
    """Header and rows of a CSV, numbers parsed, the wall_time column dropped."""
    header, *rows = (line.split(",") for line in path.read_text().splitlines())
    keep = [i for i, name in enumerate(header) if name != "wall_time"]

    def cell(text):
        try:
            return float(text)
        except ValueError:
            return text

    return [header[i] for i in keep], [[cell(row[i]) for i in keep] for row in rows]


@pytest.mark.parametrize(
    "args, golden",
    [
        (["dtcrit-sweep"], "dtcrit_sweep_default.csv"),
        (["bar2d-sweep", "--config", str(DATA / "bar2d_sweep_small.ini")], "bar2d_sweep_small.csv"),
    ],
    ids=["dtcrit-sweep", "bar2d-sweep"],
)
def test_cli_output_matches_its_golden_file(tmp_path, args, golden):
    # every numeric cell to 1e-12 relative, apart from wall_time
    out = tmp_path / golden
    assert main([*args, "--out", str(out)]) == 0
    got_header, got = numeric_cells(out)
    want_header, want = numeric_cells(DATA / golden)
    assert got_header == want_header and len(got) == len(want)
    for got_row, want_row in zip(got, want):
        assert got_row == pytest.approx(want_row, rel=1e-12, abs=0.0)


def test_quadrature_check_subcommand(tmp_path):
    out = tmp_path / "quad.csv"
    rc = main(["quadrature-check", "--degree", "4", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("check,")
    assert any(line.startswith("circle_volume_ratio,depth=5") for line in lines)


def test_quadrature_check_negative_degree_exits_2(tmp_path, capsys):
    # below zero, and above 46, the stiffness degree of the highest order
    out = tmp_path / "quad.csv"
    for degree, message in (("-1", "must be >= 0"), ("47", "must be <= 46")):
        assert main(["quadrature-check", "--degree", degree, "--out", str(out)]) == 2
        assert f"quadrature degree {message}" in capsys.readouterr().err
        assert not out.exists()


def test_module_entrypoint_smoke():
    # the child imports the cutsem under test, whether installed or on a path
    src = os.path.dirname(os.path.dirname(cutsem.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "cutsem.cli", "--version"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0
    assert __version__ in proc.stdout
