"""The comparison and report of scripts/check_desk_csvs.py on small CSV
texts, and its run with the sweep stubbed."""

import importlib.util
import math
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "check_desk_csvs.py"
spec = importlib.util.spec_from_file_location("check_desk_csvs", SCRIPT)
check_desk_csvs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(check_desk_csvs)

COMMITTED = "M,DOF_H,e_u_plain,e_p_os\n2,48,70.668854,2030.567526\n4,80,44.435155,0.000000\n"
NAME = "errors_da_0.001.csv"


def test_identical_texts_have_no_change(capsys):
    faults, cells = check_desk_csvs.compare("f.csv", COMMITTED, COMMITTED)
    assert faults == [] and len(cells) == 6
    assert all(want == got and change == 0.0 for _, _, _, want, got, change in cells)
    assert check_desk_csvs.report({NAME: (COMMITTED, COMMITTED)}) == ([], 0.0)
    assert capsys.readouterr().out.splitlines() == [
        f"{col}: largest relative change 0.000e+00 ({NAME}, M=2)" for col in ("DOF_H", "e_u_plain", "e_p_os")
    ]


def test_largest_change_per_column_and_its_row(capsys):
    new = "M,DOF_H,e_u_plain,e_p_os\n2,48,70.668855,2030.567526\n4,80,44.435165,0.000001\n"
    faults, largest = check_desk_csvs.report({NAME: (COMMITTED, new)})
    assert faults == [] and largest == math.inf  # a change from zero
    lines = capsys.readouterr().out.splitlines()
    assert lines[-3:] == [
        f"DOF_H: largest relative change 0.000e+00 ({NAME}, M=2)",
        f"e_u_plain: largest relative change {1e-5 / 44.435155:.3e} ({NAME}, M=4)",
        f"e_p_os: largest relative change inf ({NAME}, M=4)",
    ]
    change = check_desk_csvs.relative_change("44.435155", "44.435165")
    assert change == pytest.approx(1e-5 / 44.435155)


@pytest.mark.parametrize(
    "new, fault",
    [
        (COMMITTED.replace("e_p_os", "e_s_os"), "f.csv: header differs"),
        (COMMITTED.replace("4,80,44.435155,0.000000\n", ""), "f.csv: M=4 row missing"),
        (COMMITTED.replace(",0.000000", ""), "f.csv: M=4 has 3 cells, committed 4, header 4"),
        (
            COMMITTED.replace("\n", "\r\n"),
            "f.csv: bytes differ outside the cells (line endings or row order)",
        ),
        (
            "M,DOF_H,e_u_plain,e_p_os\n4,80,44.435155,0.000000\n2,48,70.668854,2030.567527\n",
            "f.csv: bytes differ outside the cells (line endings or row order)",
        ),
    ],
    ids=["header", "missing_row", "short_row", "line_endings", "row_order_and_a_cell"],
)
def test_other_layout_is_no_comparison(new, fault):
    # a layout fault fails the pair under any tolerance
    assert check_desk_csvs.compare("f.csv", COMMITTED, new)[0] == [fault]


def test_rows_longer_than_the_header_are_no_comparison():
    long = COMMITTED.replace(",0.000000", ",0.000000,1")
    fault = "f.csv: M=4 has 5 cells, committed 5, header 4"
    assert check_desk_csvs.compare("f.csv", long, long.replace(",1\n", ",2\n"))[0] == [fault]


def test_report_names_each_differing_cell_and_row(capsys):
    new = "M,DOF_H,e_u_plain,e_p_os\n4,80,44.435165\n8,144,1.0,2.0\n"
    faults, _ = check_desk_csvs.report({"f.csv": (COMMITTED, new)})
    assert faults == [
        "f.csv: M=2 row missing",
        "f.csv: M=4 has 3 cells, committed 4, header 4",
        "f.csv: M=8 row added",
    ]
    assert capsys.readouterr().out.splitlines()[:4] == [
        "DIFFERS: f.csv: M=2 row missing",
        "DIFFERS: f.csv: M=4 has 3 cells, committed 4, header 4",
        "DIFFERS: f.csv: M=8 row added",
        "DIFFERS: f.csv: M=4 e_u_plain committed 44.435155 new 44.435165 relative change 2.250e-07",
    ]


@pytest.fixture
def sweep(tmp_path, monkeypatch):
    """Runs the script with `COMMITTED` under tmp_path, outside the checkout,
    and a sweep that writes the CSV texts {name: text} given to the call;
    returns the exit status, the output lines and the committed path."""
    committed = tmp_path / "committed"
    committed.mkdir()
    (committed / NAME).write_text(COMMITTED)
    (committed / "errors_da_1e-05.csv").write_text(COMMITTED)
    monkeypatch.setattr(check_desk_csvs, "COMMITTED", committed)

    def call(capsys, written, rtol=None):
        def fake_main(argv):
            out = pathlib.Path(argv[argv.index("--out") + 1])
            for name, text in written.items():
                (out / name).write_text(text)
            return 0

        monkeypatch.setattr(check_desk_csvs, "main", fake_main)
        status = check_desk_csvs.run(rtol)
        return status, capsys.readouterr().out.splitlines(), committed

    return call


BOTH = {NAME: COMMITTED, "errors_da_1e-05.csv": COMMITTED}


@pytest.mark.parametrize(
    "rtol, verdict",
    [(None, "2 sweep CSVs byte-identical to"), (1e-12, "sweep CSVs within rtol 1e-12 of")],
    ids=["bytes", "rtol"],
)
def test_run_passes_identical_files(sweep, capsys, rtol, verdict):
    status, lines, committed = sweep(capsys, BOTH, rtol)
    assert status == 0
    assert lines[-1] == f"{verdict} {committed}"


@pytest.mark.parametrize(
    "rtol, status, verdict",
    [
        (None, 1, "sweep CSVs differ from"),
        (1e-8, 1, "sweep CSVs not within rtol 1e-08 of"),
        (1e-6, 0, "sweep CSVs within rtol 1e-06 of"),
    ],
    ids=["bytes", "rtol_1e-08", "rtol_1e-06"],
)
def test_run_judges_one_changed_cell(sweep, capsys, rtol, status, verdict):
    changed = {**BOTH, NAME: COMMITTED.replace("70.668854", "70.668861")}  # relative change ~1e-7
    got, lines, committed = sweep(capsys, changed, rtol)
    assert got == status
    cell = f"DIFFERS: {NAME}: M=2 e_u_plain committed 70.668854 new 70.668861 relative change 9.905e-08"
    assert lines[0] == cell
    assert f"e_u_plain: largest relative change 9.905e-08 ({NAME}, M=2)" in lines
    assert lines[-1] == f"{verdict} {committed}"


@pytest.mark.parametrize("rtol", [None, 1.0], ids=["bytes", "rtol_1"])
@pytest.mark.parametrize(
    "written, fault",
    [
        ({NAME: COMMITTED}, "DIFFERS: errors_da_1e-05.csv: missing from the sweep"),
        ({**BOTH, "errors_da_0.1.csv": COMMITTED}, "DIFFERS: errors_da_0.1.csv: not committed"),
        ({**BOTH, NAME: COMMITTED.replace("M,", "m,")}, f"DIFFERS: {NAME}: header differs"),
    ],
    ids=["missing_file", "extra_file", "header"],
)
def test_run_fails_another_file_set_or_layout(sweep, capsys, rtol, written, fault):
    status, lines, committed = sweep(capsys, written, rtol)
    assert status == 1
    assert lines[0] == fault
    verdict = "sweep CSVs differ from" if rtol is None else "sweep CSVs not within rtol 1 of"
    assert lines[-1] == f"{verdict} {committed}"
