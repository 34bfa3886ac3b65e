"""Output comparison of tools/parity.py, on small synthetic output trees (no git)."""

import importlib.util
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

from dipolariton.cli import _COMMANDS
from dipolariton.config import parse_config

_PATH = Path(__file__).resolve().parents[1] / "tools" / "parity.py"
_spec = importlib.util.spec_from_file_location("parity", _PATH)
parity = importlib.util.module_from_spec(_spec)
sys.modules["parity"] = parity
_spec.loader.exec_module(parity)

SELFTEST = """\
# dipolariton 0.1.0
check,measure,status
alpha_magnitude,0.0001,PASS
linear_diffusion_spreading,{},PASS
"""
FIELD_HEADER = "dipolariton-field-v1 8 8 8 0.5 0.5 0.5 {}\n"


def field_bytes(t, field):
    return FIELD_HEADER.format(t).encode() + field.astype("<c16").tobytes()


def write_tree(root, files):
    for name, data in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data if isinstance(data, bytes) else data.encode())
    return root


def test_identical_trees_report_every_file_identical(tmp_path, capsys):
    field = np.arange(512, dtype=complex).reshape(8, 8, 8)
    files = {"selftest/selftest.csv": SELFTEST.format("8.4766638153155327e-11"),
             "selftest/stdout": "ok   alpha (measure = 1.000e-04)\n",
             "evolve/final_field.bin": field_bytes(2.5e-8, field)}
    old, new = write_tree(tmp_path / "a", files), write_tree(tmp_path / "b", files)
    report = parity.compare_dirs(old, new)
    assert report == {name: [] for name in sorted(files)}
    assert parity.print_report("threads-1", report)
    assert capsys.readouterr().out.splitlines() == [
        "threads-1: 3 of 3 files identical",
        "  evolve/final_field.bin: identical",
        "  selftest/selftest.csv: identical",
        "  selftest/stdout: identical",
    ]


def test_a_csv_column_reports_its_largest_difference_and_row():
    old, new = "8.4766638153155327e-11", "8.3589246635540349e-11"
    relative = (8.4766638153155327e-11 - 8.3589246635540349e-11) / 1e-4
    assert parity.compare_file("selftest.csv", SELFTEST.format(old).encode(),
                               SELFTEST.format(new).encode()) == [
        f"column measure: largest difference {relative:.3g} of max |value| at "
        f"linear_diffusion_spreading, {old} -> {new} (1 of 2 values differ)"
    ]


def test_rows_without_a_name_are_counted_and_comments_compare_by_text():
    header = "# fit_residual {}\nt,re_amplitude\n"
    old = header.format("1.0e-11") + "0,1\n1,0.5\n2,-0.25\n"
    new = header.format("1.5e-11") + "0,1\n1,0.5\n2,-0.5\n"
    assert parity.compare_file("response.csv", old.encode(), new.encode()) == [
        "'# fit_residual {}': largest difference 0.5 of max |value|, "
        "1.0e-11 -> 1.5e-11 (1 of 1 values differ)",
        "column re_amplitude: largest difference 0.25 of max |value| at row 3, "
        "-0.25 -> -0.5 (1 of 3 values differ)",
    ]


def test_lines_added_or_dropped_are_listed_up_to_a_bound():
    body = "t,a\n" + "".join(f"{i},{i * 0.5}\n" for i in range(12))
    short = "t,a\n" + "".join(f"{i},{i * 0.5}\n" for i in range(4))
    n = parity.SHOWN_LINES
    assert parity.compare_file("r.csv", body.encode(), short.encode()) == (
        [f"- {i},{i * 0.5}" for i in range(4, 4 + n)] + [f"- ... and {8 - n} more lines dropped"]
    )
    assert parity.compare_file("stdout", b"a 1\n", b"a 1\nb 2\n") == ["+ b 2"]
    # a line whose words change is a line dropped and one added
    assert parity.compare_file("stdout", b"ok 1\n", b"FAIL 1\n") == ["- ok 1", "+ FAIL 1"]


@pytest.mark.parametrize("line, numbers", [
    ("tabulated 16x16 coefficients at 64^3", ["64", "3"]),
    ("relative norm drift 3.3e-16.", ["3.3e-16"]),
    ("measure = -1.5E+02, nan and inf; var_z2 4", ["-1.5E+02", "nan", "inf", "4"]),
])
def test_numbers_in_text(line, numbers):
    assert parity._NUMBER.findall(line) == numbers


def test_a_binary_payload_reports_its_largest_relative_difference():
    field = np.arange(512, dtype=complex).reshape(8, 8, 8) * (1 + 1j)
    moved = field.copy()
    moved[1, 2, 3] += 1e-9
    assert parity.compare_file("final_field.bin", field_bytes(2.5e-8, field),
                               field_bytes(2.5e-8, moved)) == [
        f"payload: largest difference {1e-9 / abs(field).max():.3g} of max |value| "
        "(1 of 512 values differ)"
    ]
    assert parity.compare_file("final_field.bin", field_bytes("2.5000000000000002e-08", field),
                               field_bytes("2.4999999999999999e-08", field)) == [
        "'dipolariton-field-v1 {} {} {} {} {} {} {}' number 7: largest difference "
        f"{(2.5000000000000002e-08 - 2.4999999999999999e-08) / 2.5000000000000002e-08:.3g} "
        "of max |value|, 2.5000000000000002e-08 -> 2.4999999999999999e-08 (1 of 1 values differ)"
    ]
    assert parity.compare_file("final_field.bin", field_bytes(0.0, field),
                               field_bytes(0.0, field[:4])) == [
        f"payload: {field.nbytes} bytes -> {field.nbytes // 2} bytes"
    ]


def test_a_file_in_one_tree_only_is_added_or_dropped(tmp_path):
    old = write_tree(tmp_path / "a", {"x/stdout": "a\n", "x/gone.csv": "h\n"})
    new = write_tree(tmp_path / "b", {"x/stdout": "a\n", "x/new.csv": "h\n"})
    report = parity.compare_dirs(old, new)
    assert report == {"x/gone.csv": ["dropped"], "x/new.csv": ["added"], "x/stdout": []}
    assert not parity.print_report("demos", report)


def test_stdout_record_drops_the_paths_and_keeps_failures():
    paths = {"/w/head/out/threads-1/evolve": "<out>", "/w/head/tree": "<tree>"}
    stdout = "wrote /w/head/out/threads-1/evolve/observables.csv\n"
    assert parity.stdout_record(stdout, "", 0, paths) == "wrote <out>/observables.csv\n"
    assert parity.stdout_record("", "error: /w/head/tree/configs/x.cfg bad\n", 2, paths) == (
        "stderr: error: <tree>/configs/x.cfg bad\nexit 2\n"
    )


def test_the_run_list_names_every_shipped_config_once_with_a_command(tmp_path):
    stems = [stem for stem, _ in parity.SHIPPED]
    shipped = sorted(p.stem for p in (_PATH.parents[1] / "configs").glob("*.cfg"))
    assert sorted(stems) == shipped
    assert all(command in _COMMANDS for _, command in parity.SHIPPED)
    # a tree of the shipped configs alone: no benchmark, no demos
    tree = tmp_path / "tree"
    shutil.copytree(_PATH.parents[1] / "configs", tree / "configs")
    todo = parity.runs(tree, tmp_path / "out")
    complex_mass = [f"{stem}-complex-mass" for stem in parity.COMPLEX_MASS]
    for threads in parity.THREADS:
        names = [out.name for _, out in todo if out.parent.name == f"threads-{threads}"]
        assert sorted(names) == sorted([*stems, *complex_mass, "kernel-off-axis", "selftest"])
    # evolve and respond run once more with --complex-mass, on their shipped config, at each
    # thread count; no other run takes the option
    assert parity.COMPLEX_MASS == ("evolve", "respond")
    for argv, out in todo:
        assert ("--complex-mass" in argv) == (out.name in complex_mass), out.name
        if out.name in complex_mass:
            stem = out.name.removesuffix("-complex-mass")
            assert argv[2] == stem and argv[argv.index("--config") + 1] == str(tree / "configs" / f"{stem}.cfg")
    assert sorted(out.parent.name for _, out in todo if out.name in complex_mass) == sorted(
        f"threads-{t}" for t in parity.THREADS for _ in complex_mass)
    # the kernel config runs once more with its dipoles off the z axis, at each thread count
    off_axis = [argv for argv, out in todo if out.name == "kernel-off-axis"]
    assert [argv[argv.index("--threads") + 1] for argv in off_axis] == [str(t) for t in parity.THREADS]
    assert all(argv[2] == "kernel" for argv in off_axis)
    text = Path(off_axis[0][off_axis[0].index("--config") + 1]).read_text()
    assert parse_config(text).get("kernel.orientation") == (0.0, 0.6, 0.8)
    assert text == (tree / "configs" / "kernel.cfg").read_text().replace(
        "kernel.orientation = 0 0 1", "kernel.orientation = 0 0.6 0.8")
