import importlib.util
import json
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"


@pytest.fixture(scope="module")
def compare():
    spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_tree(root: pathlib.Path, files: dict) -> pathlib.Path:
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return root


def table(rows):
    return {"columns": ["t", "dS"], "meta": {"kind": "vn"}, "rows": rows}


BASE = {
    "same.csv": "t,dS\n0.0,0.0\n",
    "sweeps/sweep.csv": "t,dS\n0.0,0.0\n1.0,0.25\n2.0,-0.5\n",
    "sweeps/sweep.json": json.dumps(table([[0.0, 0.0], [1.0, 0.25]])),
    "selfcheck.txt": "[PASS] oracle-average: max_dev=1.110e-16 tol=1e-08  n_max=11\n",
}


def run(compare, capsys, a, b):
    code = compare.main([str(a), str(b)])
    lines = capsys.readouterr().out.splitlines()
    return code, {line.split("  ")[-1]: line.split("  ")[0] for line in lines}


def test_reports_each_file_by_its_largest_deviation(compare, capsys, tmp_path):
    a = write_tree(tmp_path / "a", BASE)
    b = write_tree(tmp_path / "b", {
        **BASE,
        "sweeps/sweep.csv": "t,dS\n0.0,0.0\n1.0,0.2500000000000001\n2.0,-0.5000000000000004\n",
        "sweeps/sweep.json": json.dumps(table([[0.0, 0.0], [1.0, 0.25 + 2**-50]])),
        "selfcheck.txt": "[PASS] oracle-average: max_dev=2.220e-16 tol=1e-08  n_max=11\n",
    })
    code, report = run(compare, capsys, a, b)
    assert code == 0
    assert report["same.csv"] == "identical"
    gap = abs(-0.5000000000000004 + 0.5)
    assert report[str(pathlib.Path("sweeps/sweep.csv"))] == (
        f"max_abs={gap:.3e} max_rel={gap / 0.5000000000000004:.3e} changed_cells=2")
    assert report[str(pathlib.Path("sweeps/sweep.json"))].startswith(
        f"max_abs={2**-50:.3e} ")
    # a residual is read against the floor, not against itself
    assert report["selfcheck.txt"] == "max_abs=1.110e-16 max_rel=1.110e-04 changed_cells=1"


@pytest.mark.parametrize("a, b, rel", [
    (1.110e-16, 1.388e-16, 2.78e-05),  # a rounding residual moved by an ulp
    (3e-13, -3e-13, 0.6),  # below the floor, against the floor
    (2e-12, 1e-12, 0.5),  # above it, against the larger value
])
def test_relative_deviation_has_a_floor(compare, a, b, rel):
    gap, relative = compare._deviation(a, b)
    assert gap == abs(a - b)
    assert relative == pytest.approx(rel, rel=1e-3)
    assert compare._deviation(b, a) == (gap, relative)


@pytest.mark.parametrize("name, text", [
    ("sweeps/sweep.csv", "t,dS\n0.0,0.0\n1.0,0.25\n"),  # a row fewer
    ("sweeps/sweep.csv", "t,dS\n0.0,0.0\n1.0,0.25,9.0\n2.0,-0.5\n"),  # a cell more
    ("sweeps/sweep.json", json.dumps(table([[0.0, 0.0]]))),  # a row fewer
    ("sweeps/sweep.json", json.dumps({**table([[0.0, 0.0], [1.0, 0.25]]), "extra": 1})),
    ("selfcheck.txt", "[FAIL] oracle-average: max_dev=1.110e-16 tol=1e-08  n_max=11\n"),
], ids=["csv-rows", "csv-cells", "json-rows", "json-keys", "text"])
def test_cells_that_do_not_pair_up_exit_1(compare, capsys, tmp_path, name, text):
    a = write_tree(tmp_path / "a", BASE)
    b = write_tree(tmp_path / "b", {**BASE, name: text})
    code, report = run(compare, capsys, a, b)
    assert code == 1
    assert report[str(pathlib.Path(name))].startswith("mismatch")
    assert report["same.csv"] == "identical"


def test_a_file_in_one_tree_only_exits_1(compare, capsys, tmp_path):
    a = write_tree(tmp_path / "a", BASE)
    b = write_tree(tmp_path / "b", {k: v for k, v in BASE.items() if k != "same.csv"})
    code, report = run(compare, capsys, a, b)
    assert code == 1 and report["same.csv"] == "missing in B"
    code, report = run(compare, capsys, b, a)
    assert code == 1 and report["same.csv"] == "missing in A"


def test_non_finite_cells_agree_only_when_equal(compare, tmp_path):
    a = write_tree(tmp_path / "a", {"x.csv": "v\nnan\ninf\n1.0\n"})
    b = write_tree(tmp_path / "b", {"x.csv": "v\nnan\ninf\ninf\n"})
    gap, rel, changed = compare.compare_files(a / "x.csv", b / "x.csv")
    assert (gap, rel, changed) == (float("inf"), float("inf"), 1)


def test_usage(compare, capsys, tmp_path):
    assert compare.main([str(tmp_path)]) == 2
    assert compare.main([str(tmp_path), str(tmp_path / "absent")]) == 2
