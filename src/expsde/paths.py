"""Reproducible Gaussian increment streams keyed by (seed, trajectory, level).

Each trajectory's stream is a counter-based Philox generator whose key is
numpy's SeedSequence hash of the seed with (trajectory, level) as the spawn
key, that is the key `Philox(SeedSequence(entropy=seed, spawn_key=(trajectory,
level)))` would use.  The k-th draw of a stream is a pure function of
(seed, trajectory, level, k): simulation order, chunking and worker layout
cannot change any value.  Draws are standard normals; the path stepper
(montecarlo.simulate_paths) scales them by sqrt(dt).

A GaussianStream covers a run of `count` consecutive trajectories, one row
each: the engine makes one per chunk of paths, and standard_normals(n)
returns the next n draws of every row as one (count, n) array.  Anything
with a `count` and such a standard_normals(n) method can stand in for a
stream in the stepper.

Keys are computed in bulk, KEY_BLOCK trajectories per numpy pass
(philox_keys re-implements the SeedSequence pool hash on uint32 arrays).
A stream drawn in one call, such as every chunk of a short path, draws
all its rows through one Philox generator per thread, re-keyed per row by
assigning its state.  A stream whose paths resume over several calls (a
path longer than one draw segment) instead builds one generator per row
at its first call, keyed through _RowKey without hashing a SeedSequence,
and later calls draw straight from those.  Neither changes a draw: every
row draws the values of its own Philox(SeedSequence(...)) generator.

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
    """The Philox generator single-call streams draw through, one per
    thread.  Every row's draw first assigns that row's whole state to it."""

    def __init__(self):
        self.gen = np.random.Generator(np.random.Philox(0))
        self.bitgen = self.gen.bit_generator
        # the state of a Philox just built from a key; only the key changes
        self.fresh = {"bit_generator": "Philox",
                      "state": {"counter": [0, 0, 0, 0], "key": None},
                      "buffer": [0, 0, 0, 0], "buffer_pos": 4,
                      "has_uint32": 0, "uinteger": 0}


_SHARED = _Generator()


class _RowKey(np.random.bit_generator.ISeedSequence):
    """A seed sequence that hands Philox one precomputed key: Philox(
    _RowKey(key)) is the generator Philox(SeedSequence(...)) builds when
    key is that SeedSequence's generate_state(2, np.uint64), without
    hashing it again (and cheaper than Philox(key=...))."""

    __slots__ = ("key",)

    def __init__(self, key):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        return np.array(self.key, dtype=np.uint64)


class GaussianStream:
    """Deterministic source of standard normal draws for `count` consecutive
    trajectories, starting at `trajectory`.

    Row i of every draw is the stream of trajectory + i alone: its values do
    not depend on `count` or on the other rows.  A call that leaves the rows
    fewer than 2^level draws in, the number a path at that level uses,
    builds one generator per row (once) and later calls continue from
    them.  A call that reaches 2^level draws ends with them; one after that
    replays each row from its key, which gives the same draws at a cost
    that grows with the counter.  A stream whose first call takes all
    2^level draws never builds per-row generators.
    """

    __slots__ = ("seed", "trajectory", "level", "count", "counter",
                 "_keys", "_rows")

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
        keys = []
        first, last = self.trajectory, self.trajectory + self.count
        while first < last:  # one key block, or the part of it in the run
            block, index = divmod(first, KEY_BLOCK)
            take = min(KEY_BLOCK - index, last - first)
            keys += _stream_keys(self.seed, self.level, block)[index:index + take]
            first += take
        self._keys = keys
        # one generator per row, `counter` draws in, while the paths resume
        self._rows = None

    def standard_normals(self, n: int) -> np.ndarray:
        """Draw the next n standard normals of every row, as a fresh
        (count, n) array (consecutive calls concatenate along each row)."""
        n = int(n)
        out = np.empty((self.count, n), dtype=np.float64)
        counter = self.counter
        self.counter += n
        # counter < 2^level: the paths have draws to come
        resume = self.counter.bit_length() <= self.level
        rows = self._rows
        if rows is None and not resume:
            # start every row from its key on the shared generator and
            # replay the draws already made
            shared = _SHARED
            gen, bitgen, fresh = shared.gen, shared.bitgen, shared.fresh
            fresh_state = fresh["state"]
            for i, key in enumerate(self._keys):
                fresh_state["key"] = key
                bitgen.state = fresh
                if counter:
                    gen.standard_normal(counter)
                gen.standard_normal(out=out[i])
            return out
        if rows is None:
            rows = self._rows = [np.random.Generator(np.random.Philox(_RowKey(key)))
                                 for key in self._keys]
            if counter:
                for gen in rows:
                    gen.standard_normal(counter)
        for gen, row in zip(rows, out):
            gen.standard_normal(out=row)
        if not resume:
            self._rows = None
        return out

    def __repr__(self):
        return (f"GaussianStream(seed={self.seed}, trajectory={self.trajectory}, "
                f"level={self.level}, count={self.count}, counter={self.counter})")


def make_stream(seed: int, trajectory: int, level: int,
                count: int = 1) -> GaussianStream:
    """Construct the keyed stream of trajectories [trajectory, trajectory +
    count) at one refinement level."""
    return GaussianStream(seed, trajectory, level, count)
