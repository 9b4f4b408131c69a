"""Reproducible Gaussian increment streams keyed by (seed, trajectory, level).

Each stream is an independent counter-based Philox generator, keyed through
numpy's SeedSequence with the trajectory index and refinement level as the
spawn key.  The k-th draw of a stream is a pure function of
(seed, trajectory, level, k): simulation order and worker layout cannot
change any value.  Draws are standard normals; the path stepper
(montecarlo.simulate_paths) scales them by sqrt(dt).  Anything with a
standard_normals(n) method can stand in for a stream there.

The generator family (Philox via numpy) is fixed per release; changing it
changes every simulated number.
"""

from __future__ import annotations

import numpy as np

__all__ = ["GaussianStream", "make_stream"]


class GaussianStream:
    """Deterministic per-trajectory source of standard normal draws."""

    __slots__ = ("seed", "trajectory", "level", "counter", "_gen")

    def __init__(self, seed: int, trajectory: int, level: int, counter: int = 0):
        if seed < 0 or trajectory < 0 or level < 0 or counter < 0:
            raise ValueError("seed, trajectory, level, counter must be nonnegative")
        self.seed = int(seed)
        self.trajectory = int(trajectory)
        self.level = int(level)
        self.counter = 0
        ss = np.random.SeedSequence(entropy=self.seed,
                                    spawn_key=(self.trajectory, self.level))
        self._gen = np.random.Generator(np.random.Philox(ss))
        if counter:
            self.standard_normals(counter)

    def standard_normals(self, n: int) -> np.ndarray:
        """Draw the next n standard normals (consecutive calls concatenate)."""
        out = self._gen.standard_normal(int(n))
        self.counter += int(n)
        return out

    def __repr__(self):
        return (f"GaussianStream(seed={self.seed}, trajectory={self.trajectory}, "
                f"level={self.level}, counter={self.counter})")


def make_stream(seed: int, trajectory: int, level: int) -> GaussianStream:
    """Construct the keyed stream for one trajectory at one refinement level."""
    return GaussianStream(seed, trajectory, level)

