"""Table reproduction plumbing: shapes, reference cells, scale guards."""

import pytest

from twosquares import refdata, tables
from twosquares.errors import ArgumentError, ResourceError


def test_table2_small_scale_sieves():
    header, rows, meta = tables.table2(xs=[10**6])
    assert header[0] == "x"
    row = rows[0]
    assert row[0] == 10**6
    assert row[1] == 216342  # published convention includes n = 0
    assert row[-1] == "sublinear"


def test_table2_reference_scale_no_sieve():
    _, rows, _ = tables.table2(xs=[10**12])
    row = rows[0]
    assert row[1] == refdata.TABLE2[10**12][0]
    assert row[-1] == "reference"
    # prediction columns match the recorded ones to the integer
    assert abs(row[2] - refdata.TABLE2[10**12][1]) <= 1
    assert abs(row[3] - refdata.TABLE2[10**12][2]) <= 1
    assert abs(row[4] - refdata.TABLE2[10**12][3]) <= 2000


def test_table3_pct_columns():
    _, rows, _ = tables.table3()
    by_a = {r[0]: r for r in rows}
    assert by_a[0][4] == pytest.approx(1.0558, abs=2e-4)
    assert by_a[0][5] == pytest.approx(1.0054, abs=2e-4)
    assert by_a[1][5] == pytest.approx(1.0011, abs=2e-4)


def test_table4_pct_columns():
    _, rows, _ = tables.table4()
    cell = {(r[0], r[1]): r for r in rows}
    act, plain, refined = refdata.TABLE4[(0, 1)]
    assert cell[(0, 1)][2] == act
    assert abs(cell[(0, 1)][3] - plain) <= 1
    assert abs(cell[(0, 1)][4] - refined) <= 1


def test_table5_shape_and_numeric_column():
    header, rows, meta = tables.table5()
    assert len(rows) == 25
    assert meta["H"] == pytest.approx(6.3651638, abs=1e-6)
    cell = {(r[0], r[1]): r for r in rows}
    # pipeline numeric-source reproduces the recorded prediction cells
    assert round(cell[(0, 0)][3] / 1e6) == 3585
    assert round(cell[(0, 3)][3] / 1e6) == 7487


def test_table6_exact_column():
    _, rows, _ = tables.table6()
    by_H = {round(r[0], 3): r for r in rows}
    assert by_H[16][1] == pytest.approx(-0.8852, abs=5e-5)
    assert by_H[100][1] == pytest.approx(-1.3968, abs=5e-5)
    assert by_H[10000][1] == pytest.approx(-2.2932, abs=5e-5)


def test_table7_exact_column():
    _, rows, _ = tables.table7()
    by_H = {round(r[0], 3): r for r in rows}
    assert by_H[16][1] == pytest.approx(0.0788, abs=5e-5)
    assert by_H[10000][1] == pytest.approx(0.1456, abs=5e-5)


def test_long_run_guards():
    with pytest.raises(ResourceError):
        tables.table6(Hs=[10**6])
    with pytest.raises(ResourceError):
        tables.table2(xs=[3 * 10**10])  # above budget, not a recorded x
    # recorded x above budget falls back to the reference cell instead
    _, rows, _ = tables.table2(xs=[10**11])
    assert rows[0][-1] == "reference"


def test_dispatch_and_bad_id():
    with pytest.raises(ArgumentError):
        tables.reproduce_table(8)
    header, _, _ = tables.reproduce_table(3)
    assert header[0] == "a"
