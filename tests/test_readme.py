"""The README's library session runs as printed, so the README and the library agree."""

import re


def test_readme_library_session_runs(pytestconfig, capsys):
    text = (pytestconfig.rootpath / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", text, flags=re.S | re.M)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    printed = capsys.readouterr().out
    assert printed.startswith("MomentEstimate(")
