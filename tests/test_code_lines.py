"""scripts/code_lines.py: the code-line count quoted for each change to
`src/cyc3`, checked on a fixture package whose count is known by hand."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "code_lines.py"

# 8 code lines: the class and two def lines, the three lines of the
# string assigned in code, and the two returns; docstrings, comments and
# blank lines do not count
FIXTURE = '''"""Module docstring,
over two lines."""

# a comment


class Holder:
    """Class docstring."""

    def text(self):
        """Function docstring,
        over two lines."""
        # a comment in a body
        value = """three
line
string"""
        return value  # a trailing comment


async def one():
    \'\'\'Async function docstring.\'\'\'
    return 1
'''


def test_code_lines_counts_each_module_and_sums_them(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "fixture.py").write_text(FIXTURE, encoding="utf-8")
    (package / "small.py").write_text("x = 1\n\n# note\ny = 2\n", encoding="utf-8")
    # from a directory outside the checkout, with the package as argument
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), str(package)],
        capture_output=True,
        text=True,
        cwd=elsewhere,
        timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines() == [
        "    8 fixture.py",
        "    2 small.py",
        "   10 total",
    ]
