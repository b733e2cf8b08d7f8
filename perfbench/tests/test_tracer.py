"""Self time, and tracing a small CLI run in a separate process."""
import json
import subprocess
import sys

import pytest

from conftest import BENCH
from tracer import self_times

SRC = BENCH.parent / "src"


def test_self_time_subtracts_children():
    spans = [("a", 0.0, 10.0, -1), ("b", 1.0, 3.0, 0), ("c", 4.0, 8.0, 0),
             ("b", 5.0, 6.0, 2)]
    assert self_times(spans) == pytest.approx({"a": 4.0, "b": 3.0, "c": 3.0})


def _traced(body: str) -> subprocess.CompletedProcess:
    prelude = (f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(BENCH)!r}]\n"
               "import sirctl.cli\nfrom tracer import Tracer\ntracer = Tracer()\n")
    return subprocess.run([sys.executable, "-c", prelude + body], capture_output=True,
                          text=True, timeout=120)


def test_traced_estimation_sweep(tmp_path):
    proc = _traced(
        "tracer.install()\n"
        f"code = sirctl.cli.main(['reproduce', 'param-est', "
        f"'--out', {str(tmp_path)!r}])\n"
        "import json; print(json.dumps([code, tracer.layer_metrics(0, 0)]))\n")
    assert proc.returncode == 0, proc.stderr
    code, layers = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0
    assert layers["core.integrate.calls"] == 1
    assert layers["core.integrate.steps"] == 11000
    assert layers["control.simulate_closed_loop.calls"] == 0
    assert layers["estimation.singular"] == 0.0
    assert layers["core.integrate.self_s"] > 0.0
    assert layers["estimation.estimate_params.self_s"] > 0.0
    assert layers["cli.main.self_s"] > 0.0


def test_missing_entry_point_fails_loudly():
    proc = _traced("import sirctl.analysis\ndel sirctl.analysis.gap_closed_form\n"
                   "tracer.install()\n")
    assert proc.returncode != 0
    assert "LookupError" in proc.stderr and "gap_closed_form" in proc.stderr
