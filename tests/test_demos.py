"""The quick demos and the README's library quickstart run to completion
against the current public API."""
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def quickstart() -> str:
    """The python block under the README's "Library quickstart" heading."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Library quickstart\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


@pytest.mark.parametrize("demo", ["brackets_demo.py", "diagnostics_demo.py", "gallery_demo.py",
                                  "nets_demo.py", "README quickstart"])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    argv = (["-c", quickstart()] if demo == "README quickstart"
            else [str(ROOT / "demos" / demo)])
    proc = subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
