"""`tools/parity.py` on hand-made records: its digest and `--compare`, with no solve or suite."""

import copy
import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "parity.py"

RECORDS = {
    "geodesic": [
        {"name": "a", "length": 1.5, "iterations": 3, "termination": "gradient"},
        {"name": "b", "length": 2.25, "iterations": 5, "termination": "gradient"},
    ],
    "library": {"scaled_leg_length": [[1.0, 7.5], [0.1, 3.0]]},
}


@pytest.fixture(scope="module")
def parity():
    saved = list(sys.path)  # the tool puts src/ and bench/ first on the path
    spec = importlib.util.spec_from_file_location("parity", TOOL)
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module


def dumps(tmp_path, new):
    paths = tmp_path / "old.json", tmp_path / "new.json"
    for path, records in zip(paths, (RECORDS, new)):
        path.write_text(json.dumps(records))
    return paths


def test_one_ulp_moves_its_group_digest_and_compare_names_it(parity, tmp_path, capsys):
    new = copy.deepcopy(RECORDS)
    new["library"]["scaled_leg_length"][1][0] = math.nextafter(0.1, 1.0)
    new["geodesic"][1]["termination"] = "line_search"
    assert parity.digest(new["library"]) != parity.digest(RECORDS["library"])
    parity.compare(*dumps(tmp_path, new))
    rel = (math.nextafter(0.1, 1.0) - 0.1) / 0.1
    old_total, new_total = 1.0 + 7.5 + 0.1 + 3.0, 1.0 + 7.5 + math.nextafter(0.1, 1.0) + 3.0
    assert capsys.readouterr().out.splitlines() == [
        "geodesic: 1 of 8 values changed",
        "  geodesic[].termination: 1 of 2 changed, first 'gradient' -> 'line_search'",
        "library: 1 of 4 values changed",
        f"  library.scaled_leg_length[][]: 1 of 4 changed, largest relative change {rel:.3g}, "
        f"total {old_total!r} -> {new_total!r}",
    ]


def test_compare_of_equal_dumps_reports_no_change(parity, tmp_path, capsys):
    assert parity.digest(RECORDS["geodesic"]) == parity.digest(copy.deepcopy(RECORDS)["geodesic"])
    parity.compare(*dumps(tmp_path, RECORDS))
    assert capsys.readouterr().out.splitlines() == [
        "geodesic: 0 of 8 values changed", "library: 0 of 4 values changed"]


@pytest.mark.parametrize("edit", [
    lambda r: r["geodesic"].pop(),
    lambda r: r["geodesic"][0].pop("termination"),
    lambda r: r.pop("library"),
    lambda r: r["library"].update(scaled_leg_length=1.0),
])
def test_compare_exits_on_dumps_of_different_structure(parity, tmp_path, edit):
    new = copy.deepcopy(RECORDS)
    edit(new)
    with pytest.raises(SystemExit) as exit_info:
        parity.compare(*dumps(tmp_path, new))
    assert exit_info.value.code not in (0, None)
