"""Every example script runs once, end to end, and tells its story; so
does the tutorial, whose python blocks run in order as one script."""

import contextlib
import io
import re
import runpy

import pytest

EXAMPLES = [
    "examples/quickstart.py",
    "examples/ransomware_recovery.py",
    "examples/forensic_timeline.py",
    "examples/file_time_machine.py",
    "examples/nvme_tour.py",
    "examples/firmware_resilience.py",
    "examples/fault_drill.py",
    "docs/TUTORIAL.md",
]

_OUTPUT = {}


def _run_markdown(path):
    """Run a document's fenced python blocks, in order, in one namespace
    (a later block uses the names an earlier one made)."""
    with open(path, encoding="utf-8") as handle:
        blocks = re.findall(r"^```python\n(.*?)^```$", handle.read(), re.M | re.S)
    assert blocks, "%s has no python block" % path
    exec(compile("\n".join(blocks), path, "exec"), {"__name__": "__main__"})


def run_example(path):
    """What ``path`` prints when run as a script.  Each example runs once
    per session; ``runpy`` propagates its exceptions, so a crash fails
    every test that asks for it."""
    if path not in _OUTPUT:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            if path.endswith(".md"):
                _run_markdown(path)
            else:
                runpy.run_path(path, run_name="__main__")
        _OUTPUT[path] = out.getvalue()
    return _OUTPUT[path]


@pytest.mark.parametrize("path", EXAMPLES)
def test_example_runs(path):
    out = run_example(path)
    assert out.strip(), "%s produced no output" % path
    assert "Traceback" not in out
    assert "ERROR" not in out


def test_quickstart_rolls_back():
    out = run_example("examples/quickstart.py")
    assert "'draft two'" in out


def test_ransomware_example_verifies():
    out = run_example("examples/ransomware_recovery.py")
    assert "byte-exact restoration: yes" in out


def test_file_time_machine_verifies():
    out = run_example("examples/file_time_machine.py")
    assert out.count("verified: yes") == 3


def test_fault_drill_recovers_and_rolls_back():
    out = run_example("examples/fault_drill.py")
    assert "torn pages discarded" in out
    assert "self-audit" in out and "clean" in out
    assert "byte-exact rollback: yes" in out
    assert "ERROR" not in out


def test_firmware_resilience_example():
    out = run_example("examples/firmware_resilience.py")
    assert "clean" in out
    assert "history while locked" in out
    assert "ERROR" not in out


def test_tutorial_reads_back_what_it_wrote():
    out = run_example("docs/TUTORIAL.md")
    assert "b'hello' 42" in out  # the bare-flash read, from the columns
    assert "b'v2'" in out  # the regular SSD's read
    assert out.splitlines()[-1].startswith("b'beta")  # the rollback's read-back
