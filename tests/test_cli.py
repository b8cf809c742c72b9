"""CLI: subcommands, output formats, exit-code contract, cache env var."""

import csv
import importlib.util
import io
import json
import os
import re
import subprocess
import sys

import pytest

from twosquares import cli, progressions


@pytest.fixture
def run(capsys):
    def _run(*args):
        code = cli.run(list(args))
        out = capsys.readouterr().out
        return code, out

    return _run


def test_sieve_count_md(run):
    code, out = run("sieve-count", "--x", "1e6")
    assert code == 0
    assert "# version=" in out
    assert "216341" in out


def test_sieve_count_csv_rfc4180(run):
    code, out = run("sieve-count", "--x", "1e4", "--format", "csv")
    assert code == 0
    body = [ln for ln in out.splitlines() if not ln.startswith("#")]
    rows = list(csv.reader(io.StringIO("\n".join(body))))
    assert rows[0] == ["x", "count"]
    assert rows[1] == ["10000", "2749"]


def test_pairs_json(run):
    code, out = run("pairs", "--x", "1e4", "--q", "5", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["header"] == ["a", "b", "count"]
    assert len(doc["rows"]) == 25
    assert doc["meta"]["q"] == 5


def test_constants_json(run):
    code, out = run("constants", "--q", "5")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["bundle"]["K"] - 0.7642236535892207) < 1e-12
    assert abs(doc["bundle"]["c0_j"]["1"] - 0.604541230) < 1e-8


def test_singular_both_modes(run):
    code, out = run("singular", "--h", "4")
    assert code == 0
    assert abs(json.loads(out)["value"] - 1.0701362) < 1e-6
    code, out = run("singular", "--tuple", "0,2,6")
    assert code == 0
    assert json.loads(out)["method"] == "local_density_product"
    # the meta reports the cutoff used: the spread where it exceeds PRIME_CUTOFF = 50
    doc = json.loads(run("singular", "--tuple", "0,2,60")[1])
    assert doc["meta"]["prime_cutoff"] == 60


def test_predict_pairs_md(run):
    code, out = run("predict", "pairs", "--x", "1e12")
    assert code == 0
    assert "pipeline-numeric" in out
    assert "3584811015" in out


def test_integral_count_cmd(run):
    code, out = run("integral-count", "--x", "1e9")
    assert code == 0
    assert json.loads(out)["rounded"] == 173226354


def test_table_cmd(run):
    code, out = run("table", "--id", "3", "--format", "csv")
    assert code == 0
    assert "30536403581" in out


def test_gaps_and_tuples(run):
    code, out = run("gaps", "--x", "1e4", "--format", "json")
    assert code == 0
    assert json.loads(out)["header"] == ["gap", "count"]
    code, out = run("tuples", "--x", "1e4", "--q", "5", "--r", "3",
                    "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 125
    mat = progressions.count_consecutive_tuples(10**4, 5, 3)
    for label, count in rows:
        assert count == mat.cell(*map(int, label.split(","))), label


def test_weighted_sum_and_integrals(run):
    code, out = run("weighted-sum", "--v", "3", "--h", "100")
    assert code == 0
    assert abs(json.loads(out)["minus_H_over_q"] - 0.1120) < 1e-3
    code, out = run("integral-S", "--v", "3", "--h", "1e4")
    assert code == 0
    assert abs(json.loads(out)["minus_H_over_q"] - 0.1461) < 1e-3
    code, out = run("integral-ktuple", "--k", "2", "--h", "100")
    assert code == 0


def test_exit_code_2_on_bad_arguments(run):
    assert run("sieve-count")[0] == 2                   # missing --x
    assert run("nope")[0] == 2                          # unknown command
    assert run("singular")[0] == 2                      # neither --h nor --tuple
    assert run("sieve-count", "--x", "-5")[0] == 2
    assert run("table", "--id", "9")[0] == 2
    assert run("table", "--id", "3", "--h", "100")[0] == 2    # table 3 takes no H
    assert run("table", "--id", "6", "--x", "1e9")[0] == 2    # table 6 takes no x
    # options a table would ignore: threads and cache_dir reach only the sieve
    # of table 1, allow_long_run only tables 1, 2, 6 and 7
    assert run("table", "--id", "2", "--threads", "2")[0] == 2
    assert run("table", "--id", "2", "--cache-dir", "unused")[0] == 2
    assert run("sieve-count", "--x", "1e6", "--threads", "2")[0] == 2
    assert run("table", "--id", "3", "--threads", "2")[0] == 2
    assert run("table", "--id", "6", "--threads", "2")[0] == 2
    assert run("table", "--id", "3", "--allow-long-run")[0] == 2
    assert run("table", "--id", "5", "--allow-long-run")[0] == 2
    assert run("table", "--id", "4", "--cache-dir", "unused")[0] == 2
    assert run("table", "--id", "7", "--cache-dir", "unused")[0] == 2
    assert run("integral-S", "--v", "0", "--h", "100", "--eps", "0.001")[0] == 2
    assert run("weighted-sum", "--v", "1", "--h", "-5")[0] == 2
    assert run("weighted-sum", "--v", "1", "--h", "nan")[0] == 2
    assert run("weighted-sum", "--q", "0", "--v", "1", "--h", "100")[0] == 2
    assert run("weighted-sum", "--q", "5", "--v", "1", "--h", "100", "--k", "-1")[0] == 2
    assert run("integral-S", "--v", "3", "--h", "nan")[0] == 2
    assert run("table", "--id", "3", "--x", "1")[0] == 2    # log x = 0
    assert run("table", "--id", "4", "--x", "1")[0] == 2
    assert run("integral-ktuple", "--k", "2", "--h", "1e200")[0] == 2  # H^k overflows
    assert run("pairs", "--x", "nan")[0] == 2
    assert run("pairs", "--x", "inf")[0] == 2


def test_exit_code_3_on_resource_limits(run):
    assert run("table", "--id", "6", "--h", "1e6")[0] == 3
    assert run("weighted-sum", "--v", "1", "--h", "2e8")[0] == 3  # T >= 2^32
    assert run("sieve-count", "--x", "1e16")[0] == 3  # above sieve.COUNT_VALUES_BUDGET


def test_cache_env_var(run, tmp_path, monkeypatch):
    monkeypatch.setenv("TWO_SQUARES_CACHE", str(tmp_path))
    code, _ = run("pairs", "--x", "1e6")
    assert code == 0
    assert list(tmp_path.iterdir())
    # unlike an explicit --cache-dir, the variable is no error where it is unused
    assert run("table", "--id", "3", "--format", "csv")[0] == 0


def _loaded_by_import(names):
    """The modules among `names` that `import twosquares` loads in a fresh interpreter."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    probe = f"import sys, twosquares; print(sorted(set(sys.modules) & {set(names)!r}))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    return out.strip()


def test_import_loads_no_scipy_or_mpmath():
    # the package needs only numpy and click at run time; scipy alone took
    # about half of the import time
    assert _loaded_by_import({"scipy", "mpmath"}) == "[]"


def test_import_loads_no_process_pool():
    # the pool is imported where a pass first uses one: concurrent.futures brings
    # multiprocessing, socket, subprocess and logging with it
    assert _loaded_by_import({"concurrent.futures", "multiprocessing"}) == "[]"


def test_reproduce_tables_script(run, capsys):
    path = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "reproduce_tables.py")
    spec = importlib.util.spec_from_file_location("reproduce_tables", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main(["--tables", "3"]) == 0
    out = capsys.readouterr().out
    code, table = run("table", "--id", "3", "--format", "md")
    assert code == 0
    m = re.fullmatch(r"\n## Table 3\n\n(.*)\n\(\d+\.\ds\)\n", out, re.S)
    assert m and m.group(1) == table
    assert script.main(["--tables", "8"]) == 2
    # --threads reaches only the tables that sieve, so tables 3 and 6 accept it
    capsys.readouterr()
    assert script.main(["--threads", "2", "--tables", "3", "6"]) == 0
    out = capsys.readouterr().out
    assert "## Table 3" in out and "## Table 6" in out
