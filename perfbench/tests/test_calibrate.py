"""The speed probe samples while code runs and keeps its own time apart."""
import signal
import time

import pytest

from calibrate import SpeedProbe, kernel, slowdown


def test_kernel_is_fixed_work():
    assert kernel() == kernel()


def test_probe_time_is_taken_out_of_its_clock():
    probe = SpeedProbe(interval=0.01)
    probe.start()
    try:
        start, raw_start = probe.clock(), time.process_time()
        while time.process_time() - raw_start < 0.3:
            pass
        net, raw = probe.clock() - start, time.process_time() - raw_start
    finally:
        probe.stop()
    assert len(probe.samples) >= 5
    assert raw - net == pytest.approx(probe.spent, abs=1e-4)
    assert slowdown(probe.samples) > 0.0
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
