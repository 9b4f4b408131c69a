"""Reproducible Gaussian increment streams keyed by (seed, lane group, level).

Trajectories are drawn in lane groups of LANES consecutive trajectories:
group g holds trajectories g*LANES .. g*LANES + LANES - 1.  A group's
stream is one counter-based Philox generator whose key is numpy's
SeedSequence hash of the seed with (g, level) as the spawn key, that is the
key `Philox(SeedSequence(entropy=seed, spawn_key=(g, level)))` would use.
The group draws step-major: its j-th standard normal is step j // LANES of
lane j % LANES, and trajectory t reads lane t % LANES of group t // LANES.
So the k-th draw of a trajectory is a pure function of (seed, trajectory,
level, k): simulation order, chunking and worker layout cannot change any
value.  Draws are standard normals; the path stepper
(montecarlo.simulate_paths) scales them by sqrt(dt).

A GaussianStream covers a run of `count` consecutive trajectories, one row
each: the engine makes one per chunk of paths, and standard_normals(n)
returns the next n draws of every row as one (count, n) array, the
transpose view of a step-major (n, count) block.  Anything with a `count`
and such a standard_normals(n) method can stand in for a stream in the
stepper.

Keys are computed in bulk, KEY_BLOCK groups per numpy pass (philox_keys
re-implements the SeedSequence pool hash on uint32 arrays).  A stream
builds one generator per group it touches when it is made, and every
call continues from those.  A run that starts or ends inside a group draws
the whole group and keeps its own lanes, so a trajectory's draws never
depend on the run it is drawn in.

The generator family (Philox via numpy) and the group layout are fixed per
release (reference.NUMERICS_VERSION); changing either changes every
simulated number.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["GaussianStream", "make_stream", "philox_keys", "KEY_BLOCK", "LANES"]

LANES = 64  # trajectories per lane group, one Philox generator each
KEY_BLOCK = 4096  # a power of two below 2^32: a block never straddles a word boundary
SLICE_DRAWS = 1 << 16  # draws per generator call, so scratch stays small

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
    """Philox keys of the KEY_BLOCK spawn indices t = block*KEY_BLOCK + i.

    Row i equals SeedSequence(entropy=seed, spawn_key=(t, *tail))
    .generate_state(2, np.uint64), the key Philox takes from that
    SeedSequence.  Streams use t = lane group and tail = (level,).
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
def _group_keys(seed: int, level: int, block: int) -> tuple:
    keys = philox_keys(seed, block, level)
    return tuple(zip(keys[:, 0].tolist(), keys[:, 1].tolist()))


class _GroupKey(np.random.bit_generator.ISeedSequence):
    """A seed sequence that hands Philox one precomputed key: Philox(
    _GroupKey(key)) is the generator Philox(SeedSequence(...)) builds when
    key is that SeedSequence's generate_state(2, np.uint64), without
    hashing it again (and cheaper than Philox(key=...))."""

    __slots__ = ("key",)

    def __init__(self, key):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        return np.array(self.key, dtype=np.uint64)


class GaussianStream:
    """Deterministic source of standard normal draws for `count` consecutive
    trajectories, starting at `trajectory`, `counter` draws into each.

    Row i of every draw is the stream of trajectory + i alone: its values do
    not depend on `count`, on `counter` or on how the draws are split over
    calls.  The stream holds one generator per lane group of its run,
    `counter` steps in, and every call continues from them.
    """

    __slots__ = ("seed", "trajectory", "level", "count", "counter", "_groups")

    def __init__(self, seed: int, trajectory: int, level: int, count: int = 1,
                 counter: int = 0):
        if seed < 0 or trajectory < 0 or level < 0 or counter < 0:
            raise ValueError("seed, trajectory, level, counter must be nonnegative")
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        self.seed = int(seed)
        self.trajectory = int(trajectory)
        self.level = int(level)
        self.count = int(count)
        self.counter = int(counter)
        first, last = self.trajectory, self.trajectory + self.count
        self._groups = []  # (generator, its lanes in the run, their rows)
        for g in range(first // LANES, (last - 1) // LANES + 1):
            block, index = divmod(g, KEY_BLOCK)
            key = _group_keys(self.seed, self.level, block)[index]
            lo, hi = max(first, g * LANES), min(last, (g + 1) * LANES)
            self._groups.append((np.random.Generator(np.random.Philox(_GroupKey(key))),
                                 slice(lo - g * LANES, hi - g * LANES),
                                 slice(lo - first, hi - first)))
        self._draw(self.counter, None)  # skip the draws already made

    def _draw(self, n, out):
        """Draw the next n steps of every group, at most SLICE_DRAWS normals
        per generator call, into the group's rows of the (n, count) array
        out, or nowhere when out is None."""
        width = max(1, min(n, SLICE_DRAWS // LANES))
        scratch = np.empty((width, LANES), dtype=np.float64)
        for gen, lanes, rows in self._groups:
            for k0 in range(0, n, width):
                part = scratch[:min(width, n - k0)]
                gen.standard_normal(out=part)
                if out is not None:
                    out[k0:k0 + len(part), rows] = part[:, lanes]

    def standard_normals(self, n: int) -> np.ndarray:
        """Draw the next n standard normals of every row, as a (count, n)
        view of a fresh step-major (n, count) array (consecutive calls
        concatenate along each row)."""
        n = int(n)
        out = np.empty((n, self.count), dtype=np.float64)
        self._draw(n, out)
        self.counter += n
        return out.T

    def __repr__(self):
        return (f"GaussianStream(seed={self.seed}, trajectory={self.trajectory}, "
                f"level={self.level}, count={self.count}, counter={self.counter})")


def make_stream(seed: int, trajectory: int, level: int,
                count: int = 1) -> GaussianStream:
    """Construct the keyed stream of trajectories [trajectory, trajectory +
    count) at one refinement level."""
    return GaussianStream(seed, trajectory, level, count)
