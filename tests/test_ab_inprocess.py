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
    # each side's median and tail instance time, read as perfbench reads verdict_p50_s and
    # verdict_tail_s (sweep-refute's 106 instances reach the p90 rung), each with the same two ratios
    for start, name in ((4, "median"), (8, "p90 tail")):
        for line, label in zip(lines[start:start + 2], ("parent", "change")):
            assert line.startswith(f"{label} {name} instance: ") and line.endswith(" ms, best of 1")
            assert float(line.split(": ")[1].split(" ")[0]) > 0
        for line, sides in zip(lines[start + 2:start + 4], ("change/parent", "parent/parent")):
            assert line.startswith(f"{name} ratio {sides}: ") and float(line.split(": ")[1]) > 0
    # the median time of each side's fresh library loads, and the same two ratios
    for line, label in zip(lines[12:14], ("parent", "change")):
        assert line.startswith(f"{label} load: ") and line.endswith(" ms, median of 1")
        assert float(line.split(": ")[1].split(" ")[0]) > 0
    assert lines[14].startswith("load ratio change/parent: ") and float(lines[14].split(": ")[1]) > 0
    assert lines[15].startswith("load ratio parent/parent: ") and float(lines[15].split(": ")[1]) > 0
    # each side's load split into compiling the source and the rest, mostly the module bodies
    for line, label in zip(lines[16:18], ("parent", "change")):
        assert line.startswith(f"{label} load split: ") and line.endswith(" ms module bodies, medians")
        compiling, rest = line.split(": ")[1].split(", ")[:2]
        assert compiling.endswith(" ms compile") and float(compiling.split(" ")[0]) > 0
        assert float(rest.split(" ")[0]) > 0
    # each side's source lines in the library modules a load imports, and the change between them
    for line, label in zip(lines[18:20], ("parent", "change")):
        assert line.startswith(f"{label} library: ") and line.endswith(" lines in 9 modules")
        assert int(line.split(": ")[1].split(" ")[0]) > 0
    assert lines[20] == "library line change: +0"
    assert len(lines) == 21
    assert run.stderr == ""
