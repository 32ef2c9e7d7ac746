"""The README's code examples run as written, with every warning an error,
and the names it cites in mpcx exist."""

import dataclasses
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import mpcx

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


def _resolves(parts: list[str], modules: set[str]) -> bool | None:
    """Whether the dotted name ``parts`` resolves from an mpcx module or an
    mpcx class, a dataclass field counting as an attribute; None if it
    starts at neither."""
    if parts[0] == "mpcx":
        parts = parts[1:]
    if parts[0] in modules:
        obj = importlib.import_module(f"mpcx.{parts[0]}")
    elif isinstance(getattr(mpcx, parts[0], None), type):
        obj = getattr(mpcx, parts[0])
    else:
        return None
    for name in parts[1:]:
        if dataclasses.is_dataclass(obj) and name in {
                f.name for f in dataclasses.fields(obj)}:
            obj = None  # a field without a class default has no attribute
        elif obj is None or not hasattr(obj, name):
            return False
        else:
            obj = getattr(obj, name)
    return True


def test_readme_dotted_mpcx_names_resolve():
    """Every backticked dotted name in README.md that starts at an mpcx
    module (``sounder._steering_matrices``, ``mpcx.pool.run_blocks``) or an
    mpcx class (``ExtractionTrace.residual_power``) names an attribute that
    exists, so a rename or removal leaves no stale name there."""
    modules = {m.name for m in pkgutil.iter_modules(mpcx.__path__)}
    refs = set(re.findall(r"`((?:[A-Za-z_]\w*\.)+[A-Za-z_]\w*)`",
                          (ROOT / "README.md").read_text()))
    checked = {ref: _resolves(ref.split("."), modules) for ref in refs}
    assert sum(ok is not None for ok in checked.values()) >= 20
    assert sorted(ref for ref, ok in checked.items() if ok is False) == []
