"""The python examples of README.md run as written."""

import re
from pathlib import Path

README = Path(__file__).parents[1] / "README.md"


def test_every_python_example_runs(tmp_path, monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) >= 3
    monkeypatch.chdir(tmp_path)  # an example that writes files writes them here
    for i, code in enumerate(blocks, 1):
        exec(compile(code, f"README.md python example {i}", "exec"), {})
