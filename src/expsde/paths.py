"""Reproducible Gaussian increment streams keyed by (seed, trajectory, level).

Each stream is a counter-based Philox generator whose key is numpy's
SeedSequence hash of the seed with (trajectory, level) as the spawn key,
that is the key `Philox(SeedSequence(entropy=seed, spawn_key=(trajectory,
level)))` would use.  The k-th draw of a stream is a pure function of
(seed, trajectory, level, k): simulation order and worker layout cannot
change any value.  Draws are standard normals; the path stepper
(montecarlo.simulate_paths) scales them by sqrt(dt).  Anything with a
standard_normals(n) method can stand in for a stream there.

Keys are computed in bulk, KEY_BLOCK trajectories per numpy pass
(philox_keys re-implements the SeedSequence pool hash on uint32 arrays),
and streams draw through one Philox generator per thread, re-keyed per
call by assigning its state.  Neither changes a draw: only the per-stream
SeedSequence, Philox and Generator objects are gone.

The generator family (Philox via numpy) is fixed per release; changing it
changes every simulated number.
"""

from __future__ import annotations

import functools
import threading

import numpy as np

__all__ = ["GaussianStream", "make_stream", "philox_keys", "KEY_BLOCK"]

KEY_BLOCK = 4096  # a power of two below 2^32: a block never straddles a word boundary

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = np.uint32(16)


def _words(n: int) -> list:
    """uint32 words of a nonnegative int, least significant first ([0] for 0),
    as SeedSequence coerces its entropy and spawn-key entries."""
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _hash_constants(init: int, mult: int):
    c = init
    while True:
        yield np.uint32(c)
        c = (c * mult) & _MASK32


def _seed_sequence_keys(entropy: list) -> np.ndarray:
    """SeedSequence(...).generate_state(2, np.uint64) for many entropy words
    at once: entropy[j] holds the j-th entropy word of every row (a uint32
    array; at least _POOL_SIZE of them).  Returns an (m, 2) uint64 array.
    uint32 array arithmetic wraps modulo 2^32, as the hash requires."""
    consts = _hash_constants(_INIT_A, _MULT_A)
    const = next(consts)

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = next(consts)
        value = value * const
        return value ^ (value >> _XSHIFT)

    def mix(x, y):
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> _XSHIFT)

    pool = [hashmix(entropy[i]) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    consts = _hash_constants(_INIT_B, _MULT_B)
    const = next(consts)
    state = []
    for value in pool:  # four uint32 words make the two uint64 key words
        value = value ^ const
        const = next(consts)
        value = value * const
        state.append((value ^ (value >> _XSHIFT)).astype(np.uint64))
    high = np.uint64(32)
    return np.stack([state[0] | state[1] << high, state[2] | state[3] << high],
                    axis=1)


def philox_keys(seed: int, block: int, *tail: int) -> np.ndarray:
    """Philox keys of the KEY_BLOCK trajectories t = block*KEY_BLOCK + i.

    Row i equals SeedSequence(entropy=seed, spawn_key=(t, *tail))
    .generate_state(2, np.uint64), the key Philox takes from that
    SeedSequence.  Streams use tail = (level,).
    """
    if seed < 0 or block < 0 or any(v < 0 for v in tail):
        raise ValueError("seed, block and spawn-key entries must be nonnegative")
    run = _words(seed)
    # with a spawn key, SeedSequence pads short run entropy to the pool size
    run += [0] * (_POOL_SIZE - len(run))
    first = _words(block * KEY_BLOCK)
    # the low word runs over the block; the block shares every higher word
    low = np.arange(first[0], first[0] + KEY_BLOCK, dtype=np.uint32)
    fixed = first[1:] + [w for v in tail for w in _words(v)]
    entropy = ([np.full(KEY_BLOCK, w, dtype=np.uint32) for w in run] + [low]
               + [np.full(KEY_BLOCK, w, dtype=np.uint32) for w in fixed])
    return _seed_sequence_keys(entropy)


@functools.lru_cache(maxsize=8)
def _stream_keys(seed: int, level: int, block: int) -> tuple:
    keys = philox_keys(seed, block, level)
    return tuple(zip(keys[:, 0].tolist(), keys[:, 1].tolist()))


class _Generator(threading.local):
    """The Philox generator streams draw through, one per thread.  Every
    draw first assigns the drawing stream's whole state to it."""

    def __init__(self):
        self.gen = np.random.Generator(np.random.Philox(0))
        self.bitgen = self.gen.bit_generator
        # the state of a Philox just built from a key; only the key changes
        self.fresh = {"bit_generator": "Philox",
                      "state": {"counter": [0, 0, 0, 0], "key": None},
                      "buffer": [0, 0, 0, 0], "buffer_pos": 4,
                      "has_uint32": 0, "uinteger": 0}


_SHARED = _Generator()


class GaussianStream:
    """Deterministic per-trajectory source of standard normal draws.

    The stream keeps its generator state between calls while fewer than
    2^level draws have been made, the number a path at that level uses.
    A call after that replays the stream from its key, which gives the same
    draws at a cost that grows with the counter.
    """

    __slots__ = ("seed", "trajectory", "level", "counter", "_key", "_state")

    def __init__(self, seed: int, trajectory: int, level: int, counter: int = 0):
        if seed < 0 or trajectory < 0 or level < 0 or counter < 0:
            raise ValueError("seed, trajectory, level, counter must be nonnegative")
        self.seed = int(seed)
        self.trajectory = int(trajectory)
        self.level = int(level)
        self.counter = int(counter)
        block, index = divmod(self.trajectory, KEY_BLOCK)
        self._key = _stream_keys(self.seed, self.level, block)[index]
        self._state = None  # generator state after `counter` draws, if kept

    def standard_normals(self, n: int) -> np.ndarray:
        """Draw the next n standard normals (consecutive calls concatenate)."""
        n = int(n)
        shared = _SHARED
        if self._state is not None:
            shared.bitgen.state = self._state
        else:
            # start from the key and replay the draws already made
            shared.fresh["state"]["key"] = self._key
            shared.bitgen.state = shared.fresh
            if self.counter:
                shared.gen.standard_normal(self.counter)
        out = shared.gen.standard_normal(n)
        self.counter += n
        # counter < 2^level: the path has draws to come, keep the state
        self._state = (shared.bitgen.state
                       if self.counter.bit_length() <= self.level else None)
        return out

    def __repr__(self):
        return (f"GaussianStream(seed={self.seed}, trajectory={self.trajectory}, "
                f"level={self.level}, counter={self.counter})")


def make_stream(seed: int, trajectory: int, level: int) -> GaussianStream:
    """Construct the keyed stream for one trajectory at one refinement level."""
    return GaussianStream(seed, trajectory, level)
