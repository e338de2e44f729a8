"""The README's library session runs as printed and its config defaults are the parser's,
so the README and the library agree."""

import json
import re

from fracheat import cli


def test_readme_library_session_runs(pytestconfig, capsys):
    text = (pytestconfig.rootpath / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", text, flags=re.S | re.M)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    printed = capsys.readouterr().out
    assert printed.startswith("MomentEstimate(")


def test_readme_defaults_config_parses_like_the_required_fields_alone(pytestconfig):
    text = (pytestconfig.rootpath / "README.md").read_text()
    (block,) = re.findall(r"at its default:\n\n```json\n(.*?)^```", text, flags=re.S | re.M)
    full = json.loads(block)
    required = {
        "model": {"alpha": full["model"]["alpha"]},
        "discretization": {k: full["discretization"][k] for k in ("n", "t_end")},
        "ensemble": {"n_paths": full["ensemble"]["n_paths"]},
    }
    assert cli.parse_config(full) == cli.parse_config(required)
