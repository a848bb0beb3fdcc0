"""The library quick tour in README.md runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_tour_runs(tmp_path, monkeypatch, capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    monkeypatch.chdir(tmp_path)  # the tour writes trace.csv
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme_quick_tour"})
    printed = capsys.readouterr().out.splitlines()
    assert printed[0] == "<Cl(0,2) 30>"
    assert 0.0 <= float(printed[1]) < 1e-6
    assert (tmp_path / "trace.csv").read_text().startswith("step,")
