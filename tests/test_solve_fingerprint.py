import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("solve_fingerprint", ROOT / "tools" / "solve_fingerprint.py")
solve_fingerprint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(solve_fingerprint)

LINE = re.compile(
    r" *(\d+) op=\S+ n=\d+ m=(\d+) base=\S+ shrink=[01] mode=\S+ gamma=[01] rows=\S+ outer=\S+ "
    r"step=\S+ max_iters=\d+ \| iterations=([\d,]+) converged=([01]+) diverged=([01]+) x_star=[0-9a-f]{64}"
)


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
