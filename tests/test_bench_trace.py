"""The traced benchmark run must still find every name it counts.

`perfbench/tracer.py` wraps the package's functions by name, and
`perfbench/worker.py` reads its per-layer counters by qualified name.  A
counter whose function was renamed or removed silently reads 0, and a
missing `processes.quad` makes the install fail, so this runs a small traced
pass and checks the names.
"""

import io
import re
import sys
from contextlib import redirect_stdout
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_names_exist():
    counted = re.findall(r'tracer\.count\("([^"]+)"\)', (PERFBENCH / "worker.py").read_text())
    assert counted
    sys.path.insert(0, str(PERFBENCH))
    try:
        from tracer import Tracer
    finally:
        sys.path.remove(str(PERFBENCH))

    tracer = Tracer()
    tracer.install()
    try:
        cli_main = sys.modules["rhpwn.cli"].main
        with redirect_stdout(io.StringIO()):
            assert cli_main(["split-check", "--n", "2", "--order", "4"]) == 0
            assert cli_main(["density", "--n", "2", "--t", "1", "--x-grid", "0:1:1/2"]) == 0
    finally:
        tracer.uninstall()
    names = set(tracer.names)
    for name in counted + ["processes.quad"]:
        assert name in names, name
    assert tracer.count("rewrite.reduce_truncated") > 0
