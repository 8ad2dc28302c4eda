"""Golden outputs of the bundled configs.

``tests/golden/<config>/`` holds the CSV, ``report.json`` and (stone)
``recovery.json`` that ``cstarflow run configs/<config>.json`` writes.
A run must reproduce their columns, row count and row order, every
integer, string, grid value and pass flag exactly, and every other float
within ``1e-13 * max(1, |golden|)``: far under every check's bound, and
loose enough for a BLAS build that rounds a last bit differently.
"""

import json
from pathlib import Path

import pytest

from cstarflow.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
CONFIGS = sorted(p.stem for p in (ROOT / "configs").glob("*.json"))
# the columns that echo the config's grid or a check's bound: compared exactly
EXACT_COLUMNS = {"z_re", "z_im", "r", "t", "bound", "nodes"}
REL = 1e-13


def _value(text: str):
    if text in ("true", "false"):
        return text == "true"
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _close(got, want, where: str) -> None:
    if isinstance(want, float) and not isinstance(want, bool) and isinstance(got, float):
        assert abs(got - want) <= REL * max(1.0, abs(want)), f"{where}: {got!r} against golden {want!r}"
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} against golden {want!r}"


def _compare_json(got, want, where: str) -> None:
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), f"{where}: keys differ"
        for key in want:
            _compare_json(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), f"{where}: lengths differ"
        for i, (g, w) in enumerate(zip(got, want)):
            _compare_json(g, w, f"{where}[{i}]")
    else:
        _close(got, want, where)


def _compare_csv(got: str, want: str, where: str) -> None:
    got_lines, want_lines = got.splitlines(), want.splitlines()
    assert got_lines[0] == want_lines[0], f"{where}: columns differ"
    assert len(got_lines) == len(want_lines), f"{where}: row counts differ"
    columns = want_lines[0].split(",")
    for i, (g, w) in enumerate(zip(got_lines[1:], want_lines[1:]), start=1):
        g_cells, w_cells = g.split(","), w.split(",")
        assert len(g_cells) == len(w_cells) == len(columns), f"{where} row {i}: cell counts differ"
        for column, gc, wc in zip(columns, g_cells, w_cells):
            cell = f"{where} row {i} {column}"
            if column in EXACT_COLUMNS:
                assert gc == wc, f"{cell}: {gc} against golden {wc}"
            else:
                _close(_value(gc), _value(wc), cell)


def test_every_bundled_config_has_a_golden():
    assert CONFIGS == sorted(p.name for p in GOLDEN.iterdir())


@pytest.mark.parametrize("name", CONFIGS)
def test_bundled_run_matches_its_golden(name, tmp_path):
    assert main(["run", str(ROOT / "configs" / f"{name}.json"), "--quiet", "--out", str(tmp_path)]) == 0
    golden = GOLDEN / name
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(p.name for p in golden.iterdir())
    for want in sorted(golden.iterdir()):
        got = (tmp_path / want.name).read_text()
        if want.suffix == ".csv":
            _compare_csv(got, want.read_text(), want.name)
        else:
            _compare_json(json.loads(got), json.loads(want.read_text()), want.name)
