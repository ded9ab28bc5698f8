"""The README's library snippets run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_snippets_run():
    # under the suite's error::RuntimeWarning filter, so a stray numpy
    # warning in the documented path fails here too
    snippets = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert snippets
    exec(compile("".join(snippets), str(README), "exec"), {"__name__": "readme"})
