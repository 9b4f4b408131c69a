"""Reproducible Gaussian increment streams keyed by (seed, lane group, level).

Trajectories are drawn in lane groups of LANES consecutive trajectories:
group g holds trajectories g*LANES .. g*LANES + LANES - 1.  A group's
stream is one SFC64 generator seeded with numpy's SeedSequence hash of the
seed with (g, level) as the spawn key, that is the state
`SFC64(SeedSequence(entropy=seed, spawn_key=(g, level)))` would take.
The group draws step-major: its j-th standard normal is step j // LANES of
lane j % LANES, and trajectory t reads lane t % LANES of group t // LANES.
So the k-th draw of a trajectory is a pure function of (seed, trajectory,
level, k): simulation order, chunking and worker layout cannot change any
value.  Draws are standard normals; the path stepper
(montecarlo.simulate_paths) scales them by sqrt(dt).  SFC64 has no counter
or jump-ahead: streams of different keys are independent through the
SeedSequence hash alone.

A GaussianStream covers a run of `count` consecutive trajectories, one row
each: the engine makes one per chunk of paths, and standard_normals(n)
returns the next n draws of every row as one (count, n) array, the
transpose view of a step-major (n, count) block.  Anything with a `count`
and such a standard_normals(n) method can stand in for a stream in the
stepper.

Seed states are computed in bulk, KEY_BLOCK groups per numpy pass
(stream_keys re-implements the SeedSequence pool hash on uint32 arrays).
A stream builds one generator per group it touches when it is made, and
every call continues from those.  A run that starts or ends inside a group
draws the whole group and keeps its own lanes, so a trajectory's draws
never depend on the run it is drawn in.

The generator family (SFC64 via numpy) and the group layout are fixed per
release (reference.NUMERICS_VERSION); changing either changes every
simulated number.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["GaussianStream", "make_stream", "stream_keys", "KEY_BLOCK", "LANES"]

LANES = 64  # trajectories per lane group, one SFC64 generator each
KEY_BLOCK = 4096  # a power of two below 2^32: a block never straddles a word boundary
SLICE_DRAWS = 1 << 16  # draws per generator call, so scratch stays small
STATE_WORDS = 3  # uint64 words SFC64 takes from its seed sequence

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


def _hasher(init: int, mult: int):
    """SeedSequence's hashmix: each call xors with the current hash constant,
    advances it and multiplies by the new one."""
    const = init

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = (const * mult) & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> _XSHIFT)

    return hashmix


def _seed_sequence_keys(entropy: list, n_words: int) -> np.ndarray:
    """SeedSequence(...).generate_state(n_words, np.uint64) for many entropy
    words at once: entropy[j] holds the j-th entropy word of every row (a
    uint32 array; at least _POOL_SIZE of them).  Returns an (m, n_words)
    uint64 array.  uint32 array arithmetic wraps modulo 2^32, as the hash
    requires."""
    def mix(x, y):
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> _XSHIFT)

    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(entropy[i]) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    # the output words cycle through the pool, least significant half first
    hashmix = _hasher(_INIT_B, _MULT_B)
    state = [hashmix(pool[i % _POOL_SIZE]).astype(np.uint64)
             for i in range(2 * n_words)]
    high = np.uint64(32)
    return np.stack([state[2 * i] | state[2 * i + 1] << high
                     for i in range(n_words)], axis=1)


def stream_keys(seed: int, block: int, level: int) -> np.ndarray:
    """SFC64 seed states of the KEY_BLOCK lane groups g = block*KEY_BLOCK + i
    at one level.

    Row i equals SeedSequence(entropy=seed, spawn_key=(g, level))
    .generate_state(STATE_WORDS, np.uint64), the state SFC64 takes from
    that SeedSequence.
    """
    if seed < 0 or block < 0 or level < 0:
        raise ValueError("seed, block and level must be nonnegative")
    run = _words(seed)
    # with a spawn key, SeedSequence pads short run entropy to the pool size
    run += [0] * (_POOL_SIZE - len(run))
    first = _words(block * KEY_BLOCK)
    # the low word runs over the block; the block shares every higher word
    low = np.arange(first[0], first[0] + KEY_BLOCK, dtype=np.uint32)
    fixed = first[1:] + _words(level)
    entropy = ([np.full(KEY_BLOCK, w, dtype=np.uint32) for w in run] + [low]
               + [np.full(KEY_BLOCK, w, dtype=np.uint32) for w in fixed])
    return _seed_sequence_keys(entropy, STATE_WORDS)


@functools.lru_cache(maxsize=8)
def _group_keys(seed: int, level: int, block: int) -> np.ndarray:
    keys = stream_keys(seed, block, level)
    keys.flags.writeable = False  # every stream of the block reads its rows
    return keys


class _GroupKey(np.random.bit_generator.ISeedSequence):
    """A seed sequence that hands SFC64 one precomputed state: SFC64(
    _GroupKey(key)) is the generator SFC64(SeedSequence(...)) builds when
    key, a row of _group_keys, is that SeedSequence's
    generate_state(STATE_WORDS, np.uint64), without hashing it again.
    SFC64 only reads the row, so it is handed over without a copy."""

    __slots__ = ("key",)

    def __init__(self, key):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        return self.key


class GaussianStream:
    """Deterministic source of standard normal draws for `count` consecutive
    trajectories, starting at `trajectory`; `counter` counts the draws made
    of each.

    Row i of every draw is the stream of trajectory + i alone: its values do
    not depend on `count` or on how the draws are split over calls.  The
    stream holds one generator per lane group of its run, and every call
    continues from them.
    """

    __slots__ = ("seed", "trajectory", "level", "count", "counter", "_groups")

    def __init__(self, seed: int, trajectory: int, level: int, count: int = 1):
        if seed < 0 or trajectory < 0 or level < 0:
            raise ValueError("seed, trajectory, level must be nonnegative")
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        self.seed = int(seed)
        self.trajectory = int(trajectory)
        self.level = int(level)
        self.count = int(count)
        self.counter = 0
        first, last = self.trajectory, self.trajectory + self.count
        self._groups = []  # (generator, its lanes in the run, their rows)
        for g in range(first // LANES, (last - 1) // LANES + 1):
            block, index = divmod(g, KEY_BLOCK)
            key = _group_keys(self.seed, self.level, block)[index]
            lo, hi = max(first, g * LANES), min(last, (g + 1) * LANES)
            self._groups.append((np.random.Generator(np.random.SFC64(_GroupKey(key))),
                                 slice(lo - g * LANES, hi - g * LANES),
                                 slice(lo - first, hi - first)))

    def standard_normals(self, n: int) -> np.ndarray:
        """Draw the next n standard normals of every row, as a (count, n)
        view of a fresh step-major (n, count) array (consecutive calls
        concatenate along each row).  Each group draws at most SLICE_DRAWS
        normals per generator call."""
        n = int(n)
        out = np.empty((n, self.count), dtype=np.float64)
        width = max(1, min(n, SLICE_DRAWS // LANES))
        scratch = np.empty((width, LANES), dtype=np.float64)
        for gen, lanes, rows in self._groups:
            for k0 in range(0, n, width):
                part = scratch[:min(width, n - k0)]
                gen.standard_normal(out=part)
                out[k0:k0 + len(part), rows] = part[:, lanes]
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
