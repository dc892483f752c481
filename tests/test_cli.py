"""Command-line driver: subcommands, config files, and exit codes."""

import subprocess
import sys

import pytest

from cutsem import __version__
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


def test_bad_list_value_exits_2():
    assert main(["dtcrit-sweep", "--orders", "x"]) == 2


@pytest.mark.parametrize(
    "flag, value, message",
    [("--dt", "-1", "dt"), ("--dt", "0", "dt"), ("--t-end", "0", "t_end"), ("--h", "0", "h")],
)
def test_bar2d_rejects_non_positive_step_and_size(tmp_path, capsys, flag, value, message):
    out = tmp_path / "x.csv"
    rc = main(["bar2d", "--elements", "4", "--order", "2", flag, value, "--out", str(out)])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_numerical_failure_exits_3(tmp_path):
    # a step far above the critical one must report a numerical failure
    rc = main(
        [
            "bar2d",
            "--elements", "6",
            "--order", "4",
            "--cut-fraction", "1.0",
            "--dt", "2e-2",
            "--t-end", "2.0",
            "--out", str(tmp_path / "x.csv"),
        ]
    )
    assert rc == 3


def test_dtcrit_sweep_subcommand(tmp_path):
    out = tmp_path / "dt.csv"
    rc = main(
        [
            "dtcrit-sweep",
            "--orders", "3",
            "--fractions", "0.3,0.7",
            "--schemes", "fitted,scaled",
            "--epsilons", "0.01",
            "--depth", "3",
            "--out", str(out),
        ]
    )
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "order,cut_fraction,scheme,epsilon,dt_ratio"
    assert len(lines) == 5


def test_quadrature_check_subcommand(tmp_path):
    out = tmp_path / "quad.csv"
    rc = main(["quadrature-check", "--depth", "3", "--degree", "4", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("check,")
    assert any(line.startswith("circle_volume_ratio,depth=5") for line in lines)


def test_module_entrypoint_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "cutsem.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert __version__ in proc.stdout
