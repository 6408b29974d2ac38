"""The Python API block of README.md runs as documented."""

import re
from pathlib import Path

from conftest import irregular_ldpc_spec

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_api_block_runs(tmp_path):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    code = blocks[0]
    assert code.count('"spec.json"') == 1
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(irregular_ldpc_spec(0.2)[0].to_json(), encoding="utf-8")
    namespace: dict = {}
    exec(compile(code.replace('"spec.json"', repr(str(spec_file))), "README.md", "exec"), namespace)
    assert 0.0 < namespace["eps_star"] < 1.0
    trajectory = namespace["trajectory"]
    assert len(trajectory) == namespace["outcome"].iteration + 1
    assert all(len(row) == 1 for row in trajectory)
