"""Counter-based random substreams for reproducible, couplable rollouts.

Every stochastic draw in a rollout is addressed by (base seed, trajectory id,
stage, source) instead of being pulled from one sequential stream.  Two rollouts
that share a base seed therefore see *identical* exogenous randomness at every
stage regardless of how many draws either one consumed earlier, which is what
sample-path coupling of two policies requires.  The addressing is realized with
the Philox counter-based generator: the 256-bit counter is packed as

    word 0 : trajectory_id * blocks_per_source + block_offset
    word 1 : stage index
    word 2 : source tag
    word 3 : 0

and each counter value yields a block of 4 uint64 outputs.  A batched driver can
produce the draws for trajectories 0..n-1 of one (stage, source) cell with a
single contiguous ``random_raw`` call, and a scalar driver recreates trajectory
i's slice exactly by starting its counter at ``i * blocks_per_source``.

Draws come from two places, with the same bits:

* the C generator.  Constructing a ``np.random.Philox`` costs several times
  more than a draw, so every thread keeps one (in a ``threading.local``) and
  sets its key and counter before each draw, from one reused state dict.  The
  state it sets (key, counter, empty output buffer) is exactly the state of a
  freshly constructed ``Philox(key=key, counter=counter)``, and no generator
  is shared between threads.  The generator reads the dict's words faster
  from Python ints than from arrays, so its buffer is a tuple, and it keeps
  the ints of the last read-only key (`philox_key` returns one) and converts
  only another key.
* stage blocks.  A `Substream` holds one trajectory's draws; given a
  horizon of at least `MIN_WINDOW_STAGES` stages, it serves that
  trajectory's GRID, DEMAND and OUTCOME draws from blocks of up to
  `BLOCK_STAGES` stages, each one vectorized Philox4x64-10 pass over the
  stage counters (Salmon et al., "Parallel random numbers: as easy as 1, 2,
  3", SC'11).  A pass costs about as much as 100 single draws, so a shorter
  horizon opens no blocks.  The substream a sampler is handed, not any
  thread or key state, selects the blocks.
"""

from __future__ import annotations

import functools
import threading

import numpy as np

# Source tags.  Values are arbitrary but frozen: they are part of the
# reproducibility contract (a seed + tag addresses one substream forever).
GRID = 0          # grid-state transition
DEMAND = 1        # demand-chain transition
OUTCOME = 2       # which tabulated arrival outcome occurs
STAY = 3          # per-arrival stay durations
REQUEST = 4       # per-arrival charge requests
INIT_GRID = 5     # initial grid state
INIT_DEMAND = 6   # initial demand state

# Counter blocks reserved per (trajectory, stage, source) cell.  STAY/REQUEST
# need one uint64 per potential arrival; 8 blocks = 32 arrivals per stage.
MAX_ARRIVALS_PER_STAGE = 32
_BLOCKS = {
    GRID: 1,
    DEMAND: 1,
    OUTCOME: 1,
    STAY: MAX_ARRIVALS_PER_STAGE // 4,
    REQUEST: MAX_ARRIVALS_PER_STAGE // 4,
    INIT_GRID: 1,
    INIT_DEMAND: 1,
}

_U64_INV = 1.0 / 2.0 ** 64


@functools.lru_cache(maxsize=256)
def philox_key(seed: int) -> np.ndarray:
    """Derive the 128-bit Philox key for a user-facing integer seed, as a
    read-only array, one object per seed while it stays in the cache, so
    `_keyed`'s cached key ints, the one reader of key identity, serve one
    seed's key from any caller."""
    ss = np.random.SeedSequence([0x6C61786974, seed & 0xFFFFFFFFFFFFFFFF])
    key = ss.generate_state(2, np.uint64)
    key.flags.writeable = False
    return key


class _Local(threading.local):
    philox = None       # this thread's generator, keyed before every draw
    state = None        # the state dict it is keyed from
    key = None          # the read-only key whose ints that dict holds, if any


_local = _Local()


def _keyed(key: np.ndarray, c0: int, stage: int, source: int) -> np.random.Philox:
    """This thread's generator, in the state of a fresh
    ``Philox(key=key, counter=(c0, stage, source, 0))``."""
    local = _local
    if local.philox is None:
        local.philox = np.random.Philox(0)
        local.state = {"bit_generator": "Philox", "state": {},
                       "buffer": (0, 0, 0, 0), "buffer_pos": 4,
                       "has_uint32": 0, "uinteger": 0}
    state = local.state
    address = state["state"]
    address["counter"] = (c0, stage, source, 0)
    if key is not local.key:    # a writable key may change, so it is never kept
        address["key"] = (int(key[0]), int(key[1]))
        local.key = None if key.flags.writeable else key
    local.philox.state = state
    return local.philox


def uniforms(key: np.ndarray, traj: int, stage: int, source: int, n: int) -> np.ndarray:
    """n uniforms in [0, 1] for one trajectory at one (stage, source) cell.

    A uniform is a uint64 word times 2**-64, rounded to float64, so the 2**10
    largest words give exactly 1.0 (about 2**-54 per draw): a sampler that
    scales a uniform to an index must refuse that index or clamp it."""
    blocks = _BLOCKS[source]
    if n > 4 * blocks:
        raise ValueError(f"source {source} supports at most {4 * blocks} draws per stage")
    raw = _keyed(key, traj * blocks, stage, source).random_raw(n)
    return np.multiply(raw, _U64_INV, dtype=np.float64)


def uniform(key: np.ndarray, traj: int, stage: int, source: int) -> float:
    """``uniforms(key, traj, stage, source, 1)[0]`` as a Python float."""
    return _keyed(key, traj * _BLOCKS[source], stage, source).random_raw() * _U64_INV


def uniforms_batch(key: np.ndarray, n_traj: int, stage: int, source: int,
                   n_per: int, start: int = 0) -> np.ndarray:
    """(n_traj, n_per) uniforms; row i equals the scalar draws for trajectory
    start + i."""
    blocks = _BLOCKS[source]
    if n_per > 4 * blocks:
        raise ValueError(f"source {source} supports at most {4 * blocks} draws per stage")
    raw = _keyed(key, start * blocks, stage, source).random_raw(4 * blocks * n_traj)
    words = raw.reshape(n_traj, 4 * blocks)[:, :n_per]
    # One pass: the same cast to float64, then the same single rounding.
    return np.multiply(words, _U64_INV, dtype=np.float64)


# ---------------------------------------------------------------------------
# Stage blocks
# ---------------------------------------------------------------------------

BLOCK_STAGES = 4096
MIN_WINDOW_STAGES = 128
_M64 = (1 << 64) - 1
_WEYL = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)     # key increments per round
_LO32, _32 = np.uint64(0xFFFFFFFF), np.uint64(32)
_HALVES = tuple((np.uint64(m >> 32), np.uint64(m & 0xFFFFFFFF), np.uint64(m))
                for m in (0xD2E7470EE14C6C93, 0xCA5A826395121157))   # round multipliers


def _mulhilo(k: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(high, low) 64-bit words of round multiplier k times x, the high word
    from 32-bit halves."""
    mh, ml, m = _HALVES[k]
    xh, xl = x >> _32, x & _LO32
    t = xl * mh + ((xl * ml) >> _32)
    u = xh * ml + (t & _LO32)
    return xh * mh + (t >> _32) + (u >> _32), x * m


def _stage_words(key: np.ndarray, traj: int, source: int, start: int, n: int) -> np.ndarray:
    """The uint64 behind ``uniform(key, traj, t, source)`` for t in
    start..start+n-1, from one vectorized Philox4x64-10 pass over the stage
    counters.  The C generator adds one to the counter before it computes a
    block, and `uniform` reads word 0 of that block.  Counter words that do
    not depend on the stage start as one-element arrays and broadcast."""
    c = traj * _BLOCKS[source] + 1
    x0, x2, x3 = (np.array([w], dtype=np.uint64) for w in (c & _M64, source, 0))
    x1 = np.arange(start, start + n, dtype=np.uint64) + np.uint64(c >> 64)
    k0, k1 = int(key[0]), int(key[1])
    for _ in range(9):
        hi0, lo0 = _mulhilo(0, x0)
        hi1, lo1 = _mulhilo(1, x2)
        x0, x1, x2, x3 = hi1 ^ x1 ^ np.uint64(k0), lo1, hi0 ^ x3 ^ np.uint64(k1), lo0
        k0, k1 = (k0 + _WEYL[0]) & _M64, (k1 + _WEYL[1]) & _M64
    return _mulhilo(1, x2)[0] ^ x1 ^ np.uint64(k0)     # the last round, word 0 only


def stage_block(key: np.ndarray, traj: int, source: int, start: int, n: int) -> list[float]:
    """``[uniform(key, traj, t, source) for t in range(start, start + n)]``
    in one pass."""
    return (_stage_words(key, traj, source, start, n).astype(np.float64)
            * _U64_INV).tolist()


_STAGED = (GRID, DEMAND, OUTCOME)


class Substream:
    """One trajectory's draws, ``uniform(stage, source)`` and
    ``uniforms(stage, source, n)``, bit for bit the module functions of
    (key, traj).  Given a horizon of at least `MIN_WINDOW_STAGES` stages, it
    serves GRID, DEMAND and OUTCOME at stages 0..stages-1 from stage blocks,
    a block per source at a time; every other draw takes the generator."""
    __slots__ = ("key", "traj", "stages", "blocks")

    def __init__(self, key: np.ndarray, traj: int, stages: int = 0):
        self.key, self.traj, self.stages = key, traj, stages
        self.blocks = ({s: (0, ()) for s in _STAGED} if stages >= MIN_WINDOW_STAGES
                       else {})                # source -> (first stage, uniforms)

    def uniform(self, stage: int, source: int) -> float:
        block = self.blocks.get(source)
        if block is not None and 0 <= stage < self.stages:
            i = stage - block[0]
            return block[1][i] if 0 <= i < len(block[1]) else self.fill(source, stage)
        return uniform(self.key, self.traj, stage, source)

    def uniforms(self, stage: int, source: int, n: int) -> np.ndarray:
        return uniforms(self.key, self.traj, stage, source, n)

    def fill(self, source: int, stage: int) -> float:
        start = stage - stage % BLOCK_STAGES
        block = stage_block(self.key, self.traj, source, start,
                            min(BLOCK_STAGES, self.stages - start))
        self.blocks[source] = start, block
        return block[stage - start]
