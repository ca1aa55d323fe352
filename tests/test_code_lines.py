import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

FIXTURE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps its line

# a comment line


class Thing:
    """Class docstring."""

    def method(self):
        """Method docstring."""
        text = """a string that is not a docstring,
        over two lines"""
        return (text,
                os.sep)
'''


def test_counts_code_lines_without_docstrings_comments_or_blanks():
    # import, class, def, the two-line string, the two-line return
    assert code_lines.code_lines(FIXTURE) == 7


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(FIXTURE, encoding="utf-8")
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n", encoding="utf-8")
    assert code_lines.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["7", str(tmp_path / "a.py")], ["1", str(tmp_path / "b.py")], ["8", "total"]]
