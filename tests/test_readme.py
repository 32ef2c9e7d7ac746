"""The README's code examples run as written, with every warning an error."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(),
                        flags=re.DOTALL)
    assert blocks
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for code in blocks:
        run = subprocess.run([sys.executable, "-W", "error", "-c", code], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
