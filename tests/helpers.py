"""Reads of a trajectory that only the tests make."""
from __future__ import annotations

import numpy as np

from sirctl.core import SirState, Trajectory


def node_state(traj: Trajectory, k: int) -> SirState:
    """The state at grid node k (negative k counts from the end)."""
    return SirState(t=float(traj.t[k]), s=float(traj.s[k]), i=float(traj.i[k]),
                    r=float(traj.r[k]))


def max_conservation_error(traj: Trajectory) -> float:
    """The largest |S + I + R - 1| over the nodes."""
    return float(np.max(np.abs(traj.s + traj.i + traj.r - 1.0)))
