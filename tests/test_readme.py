"""The Python quickstart of README.md runs against the current package."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quickstart_runs():
    section = README.read_text(encoding="utf-8").split("\n## Quickstart\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, f"{README.name} quickstart", "exec"), {"__name__": "quickstart"})
