import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING_PROPERTY = """\
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_failing_property_does_not_end_the_session(tmp_path):
    # hypothesis reports a failing example through code that imports
    # libcst; under the project's warning filters that import must not
    # raise, or the session ends with an INTERNALERROR at the first
    # failing property and no later test runs
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert run.stdout.splitlines()[-1].startswith("1 failed, 1 passed"), run.stdout


def test_readme_library_example_runs(tmp_path):
    # the Python block under README's "Library example", as written
    section = (ROOT / "README.md").read_text().split("\n## Library example\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, capture_output=True,
                         text=True, timeout=120, env={**os.environ, "PYTHONPATH": pythonpath})
    assert run.returncode == 0 and not run.stderr, run.stderr
    label, value = run.stdout.rstrip("\n").split(": ")
    assert label == "integrated envelope width"
    assert math.isfinite(float(value))
