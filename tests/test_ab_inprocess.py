import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_ab_inprocess_compares_a_checkout_with_itself():
    run = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "ab_inprocess.py"), ROOT, ROOT,
         "--workload", "sweep-refute", "--repeats", "1"],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines[0].startswith("parent: ") and lines[0].endswith("(0 raised)")
    assert lines[1].startswith("change: ") and lines[1].endswith("(0 raised)")
    assert lines[2].startswith("ratio change/parent: ") and float(lines[2].split(": ")[1]) > 0
    # the parent's second copy against its first: the tool's own bias
    assert lines[3].startswith("ratio parent/parent: ") and float(lines[3].split(": ")[1]) > 0
    # the median time of each side's fresh library loads, and the same two ratios
    for line, label in zip(lines[4:6], ("parent", "change")):
        assert line.startswith(f"{label} load: ") and line.endswith(" ms, median of 1")
        assert float(line.split(": ")[1].split(" ")[0]) > 0
    assert lines[6].startswith("load ratio change/parent: ") and float(lines[6].split(": ")[1]) > 0
    assert lines[7].startswith("load ratio parent/parent: ") and float(lines[7].split(": ")[1]) > 0
    # each side's load split into compiling the source and the rest, mostly the module bodies
    for line, label in zip(lines[8:10], ("parent", "change")):
        assert line.startswith(f"{label} load split: ") and line.endswith(" ms module bodies, medians")
        compiling, rest = line.split(": ")[1].split(", ")[:2]
        assert compiling.endswith(" ms compile") and float(compiling.split(" ")[0]) > 0
        assert float(rest.split(" ")[0]) > 0
    assert len(lines) == 10
    assert run.stderr == ""
