"""The README's Library snippet runs against the package as it is."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_snippet_runs():
    library = README.read_text().split("## Library", 1)[1]
    (snippet,) = re.findall(r"```python\n(.*?)```", library.split("\n## ", 1)[0], re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(snippet, str(README), "exec"), {})
    # the run's line, the comparison's and the oracle solve's
    assert len(out.getvalue().splitlines()) == 3
