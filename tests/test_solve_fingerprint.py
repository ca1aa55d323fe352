import importlib.util
import re
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("solve_fingerprint", ROOT / "tools" / "solve_fingerprint.py")
solve_fingerprint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(solve_fingerprint)

LINE = re.compile(
    r" *(\d+) op=\S+ n=\d+ m=(\d+) base=\S+ shrink=[01] mode=\S+ gamma=[01] rows=\S+ outer=\S+ "
    r"step=\S+ max_iters=\d+ \| iterations=([\d,]+) converged=([01]+) diverged=([01]+) x_star=[0-9a-f]{64}"
)

LINE_RECORDS = re.compile(r"iterations=([\d,]+) converged=([01]+) diverged=([01]+)")


def _run(capsys, *argv):
    assert solve_fingerprint.main(list(argv)) == 0
    return capsys.readouterr().out.splitlines()


def test_prints_one_line_per_solve_and_repeats_it(capsys):
    lines = _run(capsys, "30")
    assert len(lines) == 30
    for index, line in enumerate(lines):
        match = LINE.fullmatch(line)
        assert match, line
        rows = int(match[2])
        assert int(match[1]) == index
        assert len(match[3].split(",")) == len(match[4]) == len(match[5]) == rows
    assert _run(capsys, "30") == lines
    assert _run(capsys, "30", "1") != lines


def test_draws_every_operator_base_outer_map_and_step(capsys):
    text = "\n".join(_run(capsys, "120"))
    for key, values in [
        ("op", solve_fingerprint.OPERATORS),
        ("base", solve_fingerprint.BASES),
        ("outer", solve_fingerprint.OUTER),
        ("step", solve_fingerprint.STEPS),
        ("rows", ("one", "per-row")),
        ("mode", solve_fingerprint.MODES),
        ("gamma", ("0", "1")),
    ]:
        for value in values:
            assert re.search(rf"\b{key}={re.escape(value)}\b", text), (key, value)
    # A bare mixture, which the solve wraps in its own output map and holds a basin for.
    assert re.search(r"\bbase=mmse3 shrink=0 mode=none gamma=0 rows=one outer=none\b", text)


def test_save_and_compare_report_the_deviation_and_every_solve_whose_records_differ(tmp_path, capsys):
    old, new = str(tmp_path / "old.npz"), str(tmp_path / "new.npz")
    assert _run(capsys, "save", old, "12") == _run(capsys, "save", new, "12") == []
    assert solve_fingerprint.main(["compare", old, new]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "12 solves, 12 with equal records, 12 of them bitwise",
        "max relative deviation of x_star: 0 (solve 0)",
        "solves whose records differ: 0",
    ]
    # One solve's x_star moved by 1e-12 of its size, another's first row stopped one iteration later.
    with np.load(new) as saved:
        arrays = dict(saved)
    moved = next(i for i in range(12) if np.max(np.abs(arrays[f"x_star_{i}"])) > 0.0)
    late = (moved + 1) % 12
    x_star = arrays[f"x_star_{moved}"]
    x_star[np.unravel_index(np.argmax(np.abs(x_star)), x_star.shape)] *= 1.0 + 1e-12
    arrays[f"iterations_{late}"][0] += 1
    np.savez(new, **arrays)
    assert solve_fingerprint.main(["compare", old, new]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == [
        "12 solves, 11 with equal records, 10 of them bitwise",
        f"max relative deviation of x_star: 1e-12 (solve {moved})",
        "solves whose records differ: 1",
    ]
    (line,) = lines[3:]
    label, change = line.strip().split(" | ")
    assert int(label.split()[0]) == late
    before, after = (LINE_RECORDS.fullmatch(side) for side in change.split(" -> "))
    assert int(after[1].split(",")[0]) == int(before[1].split(",")[0]) + 1


def test_compare_rejects_files_of_other_solves(tmp_path, capsys):
    old, new = str(tmp_path / "old.npz"), str(tmp_path / "new.npz")
    _run(capsys, "save", old, "3")
    _run(capsys, "save", new, "3", "1")
    with pytest.raises(SystemExit, match="hold different solves"):
        solve_fingerprint.main(["compare", old, new])
