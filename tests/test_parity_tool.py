"""Tests for ``tools/parity.py compare`` on small hand-made records."""
import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "parity.py"
_spec = importlib.util.spec_from_file_location("parity", TOOL)
parity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(parity)


def pair(delta=0.75, status="optimal", gap=1e-10):
    # one pair's record, with the fields ``record`` writes
    return {"c": "c0", "a": "a0", "f0": "f00", "status": status, "delta": float.hex(delta),
            "gap": gap, "iterations": 9, "dual_y": "y0", "h": "h0", "max_violation": 1e-12}


def pairs():
    # three parity sets: sweep with two pairs, ecdf (4,1) and rank3 with one each
    return {"sweep rho=1 phi=10": pair(), "sweep rho=1 phi=15": pair(0.6),
            "ecdf (4,1) 0/0": pair(1.0, "infeasible-at-delta-below-one"), "rank3 0/0": pair(0.9)}


def compare(tmp_path, capsys, before, after):
    # exit code and stdout of ``compare`` on records holding these pairs
    paths = []
    for name, record in (("before", before), ("after", after)):
        paths.append(tmp_path / f"{name}.json")
        settings = {"OPENBLAS_NUM_THREADS": "1"}
        paths[-1].write_text(json.dumps({"settings": settings, "pairs": record}))
    code = parity.main(["compare", *map(str, paths)])
    return code, capsys.readouterr().out


def test_identical_records_pass(tmp_path, capsys):
    code, out = compare(tmp_path, capsys, pairs(), pairs())
    assert code == 0
    assert "4 programs: 4 identical, 0 differ" in out
    assert "sweep: 2 programs, iterations 18 -> 18" in out
    assert "; optimal 2 -> 2\n" in out
    assert "ecdf (4,1): 1 programs" in out and "; infeasible-at-delta-below-one 1 -> 1\n" in out


def test_status_change_fails_and_is_counted(tmp_path, capsys):
    after = pairs()
    after["sweep rho=1 phi=15"]["status"] = "step-failure"
    code, out = compare(tmp_path, capsys, pairs(), after)
    assert code == 1
    assert "sweep rho=1 phi=15: FAIL: status optimal -> step-failure" in out
    assert "; optimal 2 -> 1, step-failure 0 -> 1\n" in out


@pytest.mark.parametrize("gap,move,code", [(1e-10, 2e-9, 1), (1e-7, 2e-7, 1),
                                           (1e-10, 5e-10, 0), (1e-7, 5e-8, 0)])
def test_delta_move_fails_beyond_max_of_floor_and_gap(tmp_path, capsys, gap, move, code):
    before, after = pairs(), pairs()
    before["rank3 0/0"]["gap"] = after["rank3 0/0"]["gap"] = gap
    after["rank3 0/0"]["delta"] = float.hex(0.9 + move)
    got, out = compare(tmp_path, capsys, before, after)
    assert got == code
    assert f"rank3 0/0: {'FAIL' if code else 'differs'}: status optimal -> optimal" in out
    assert f"3 identical, 1 differ ({code} of them in status or delta)" in out


def test_missing_pair_fails(tmp_path, capsys):
    after = pairs()
    del after["rank3 0/0"]
    code, out = compare(tmp_path, capsys, pairs(), after)
    assert code == 1
    assert "rank3 0/0: only in" in out
    assert "3 identical, 0 differ (0 of them in status or delta), 1 missing from one record" in out
    # a set that is empty in one record still gets its summary line
    assert "rank3: 1 programs, iterations 9 -> 0" in out and "; optimal 1 -> 0\n" in out


def test_largest_violation_per_set(tmp_path, capsys):
    # each set's summary gives its largest max_violation, before -> after; a
    # violation that moved is reported, not failed
    before, after = pairs(), pairs()
    before["sweep rho=1 phi=10"]["max_violation"] = 4e-10
    after["sweep rho=1 phi=15"]["max_violation"] = 2.5e-9
    after["rank3 0/0"]["max_violation"] = 3e-13
    code, out = compare(tmp_path, capsys, before, after)
    assert code == 0
    assert "max_violation: differs in 3 pairs (1 rose, 2 fell;" in out
    assert "sweep: 2 programs" in out and ", largest violation 4e-10 -> 2.5e-09; optimal" in out
    assert ", largest violation 1e-12 -> 1e-12; infeasible" in out
    assert ", largest violation 1e-12 -> 3e-13; optimal 1 -> 1\n" in out


@pytest.mark.parametrize("side", ["before", "after"])
def test_field_in_one_record_only_differs(tmp_path, capsys, side):
    # records written by two versions of the tool: a field that only one
    # record of a pair holds is a difference, named in the pair's line and in
    # the summary, whichever record lacks it; it fails nothing
    full, short = pairs(), pairs()
    for record in short.values():
        del record["h"]
    before, after = (short, full) if side == "after" else (full, short)
    code, out = compare(tmp_path, capsys, before, after)
    assert code == 0
    assert "4 programs: 0 identical, 4 differ (0 of them in status or delta)" in out
    change = "h absent -> h0" if side == "after" else "h h0 -> absent"
    assert ("rank3 0/0: differs: status optimal -> optimal, delta 0.9 -> 0.9 (bound 1e-09); "
            f"{change}\n") in out
    assert "h: differs in 4 pairs (4 of them in one record only)\n" in out
