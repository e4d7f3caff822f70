"""tools/src_lines.py: its count of code lines, on a synthetic module."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("src_lines", ROOT / "tools" / "src_lines.py")
src_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_lines)

# 22 physical lines, 9 of them code: import, class, pass, def, return (, the
# three lines of the two concatenated strings and the closing parenthesis
SYNTHETIC = '''"""Module docstring,
over two lines."""

# a comment line

import os  # a comment after code counts as code


class Plain:
    pass


def f():
    """Function docstring."""
    # indented comment
    return (
        "a multi-line string "
        """that is not a docstring
        and spans lines"""
    )


'''


def test_code_lines_leave_out_docstrings_comments_and_blanks():
    assert src_lines.code_lines(SYNTHETIC) == 9


def test_count_reports_physical_and_code_lines_per_module(tmp_path, capsys):
    (tmp_path / "mod.py").write_text(SYNTHETIC)
    (tmp_path / "empty.py").write_text("")
    assert src_lines.count(tmp_path) == [("empty", 0, 0), ("mod", 22, 9)]
    assert src_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].split() == ["total", "22", "9"]
