import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment does not hide the code


# a comment line
class A:
    """Class docstring."""

    def f(self):
        """Function docstring."""
        x = """a string that is
        not a docstring"""
        return x
'''


def test_counts_lines_that_hold_code(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "m.py").write_text(SOURCE)
    (tmp_path / "pkg" / "empty.py").write_text("\n# only a comment\n")
    out = subprocess.run([sys.executable, str(TOOL), str(tmp_path / "pkg")],
                         capture_output=True, text=True, check=True).stdout
    counts = [line.split()[0] for line in out.splitlines()]
    # import, class, def, the two lines of x, return
    assert counts == ["0", "6", "6"]
    assert out.splitlines()[-1].split()[1] == "total"
