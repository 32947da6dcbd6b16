"""The --rtol comparison of scripts/check_desk_csvs.py on small CSV texts,
without a sweep run."""

import importlib.util
import math
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "check_desk_csvs.py"
spec = importlib.util.spec_from_file_location("check_desk_csvs", SCRIPT)
check_desk_csvs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(check_desk_csvs)

COMMITTED = "M,DOF_H,e_u_plain,e_p_os\n2,48,70.668854,2030.567526\n4,80,44.435155,0.000000\n"


def test_identical_texts_have_no_change():
    changes = check_desk_csvs.column_changes(COMMITTED, COMMITTED)
    assert changes == {"DOF_H": (0.0, "2"), "e_u_plain": (0.0, "2"), "e_p_os": (0.0, "2")}


def test_largest_change_per_column_and_its_row():
    new = "M,DOF_H,e_u_plain,e_p_os\n2,48,70.668855,2030.567526\n4,80,44.435165,0.000001\n"
    changes = check_desk_csvs.column_changes(COMMITTED, new)
    assert changes["DOF_H"] == (0.0, "2")
    change, m = changes["e_u_plain"]
    assert m == "4" and change == pytest.approx(1e-5 / 44.435155)
    assert changes["e_p_os"] == (math.inf, "4")  # a change from zero


@pytest.mark.parametrize(
    "new",
    [
        "M,DOF_H,e_u_plain,e_s_os\n2,48,70.668854,2030.567526\n4,80,44.435155,0.000000\n",
        "M,DOF_H,e_u_plain,e_p_os\n2,48,70.668854,2030.567526\n",
        "M,DOF_H,e_u_plain,e_p_os\n2,48,70.668854,2030.567526\n4,80,44.435155\n",
    ],
    ids=["header", "missing_row", "short_row"],
)
def test_other_layout_is_no_comparison(new):
    assert check_desk_csvs.column_changes(COMMITTED, new) is None


def test_report_passes_only_within_the_tolerance(capsys):
    new = COMMITTED.replace("70.668854", "70.668861")  # relative change ~1e-7
    texts = {"errors_da_0.001.csv": (COMMITTED, new)}
    assert check_desk_csvs.report_rtol(texts, 1e-6) == 0
    out = capsys.readouterr().out
    assert "e_u_plain: largest relative change 9.905e-08 (errors_da_0.001.csv, M=2) ok" in out
    assert check_desk_csvs.report_rtol(texts, 1e-8) == 1
    assert "EXCEEDS" in capsys.readouterr().out
    texts["errors_da_1e-05.csv"] = (COMMITTED, COMMITTED.replace("M,", "m,"))
    assert check_desk_csvs.report_rtol(texts, 1.0) == 1
    assert "DIFFERS: errors_da_1e-05.csv" in capsys.readouterr().out


def test_byte_mode_names_each_differing_cell_and_row():
    new = "M,DOF_H,e_u_plain,e_p_os\n4,80,44.435165\n8,144,1.0,2.0\n"
    assert check_desk_csvs.differing_cells("f.csv", COMMITTED, new) == [
        "  f.csv: M=2 row missing",
        "  f.csv: M=4 e_u_plain committed 44.435155 new 44.435165",
        "  f.csv: M=4 has 3 cells, committed 4",
        "  f.csv: M=8 row added",
    ]
    assert check_desk_csvs.differing_cells("f.csv", COMMITTED, "m" + COMMITTED[1:]) == [
        "  f.csv: header differs"
    ]
