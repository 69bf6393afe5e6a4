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

Constructing a ``np.random.Philox`` costs several times more than the draw
itself, so every thread keeps one generator (in a ``threading.local``) and
each draw sets that generator's key and counter before reading from it.  The
state it sets (key, counter, empty output buffer) is exactly the state of a
freshly constructed ``Philox(key=key, counter=counter)``, so the outputs are
the same bit for bit, and because no generator is shared between threads,
concurrent draws never see each other's counters.
"""

from __future__ import annotations

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


def philox_key(seed: int) -> np.ndarray:
    """Derive the 128-bit Philox key for a user-facing integer seed."""
    ss = np.random.SeedSequence([0x6C61786974, seed & 0xFFFFFFFFFFFFFFFF])
    return ss.generate_state(2, np.uint64)


_local = threading.local()
_EMPTY_BUFFER = np.zeros(4, dtype=np.uint64)


def _raw(key: np.ndarray, c0: int, stage: int, source: int, n_u64: int) -> np.ndarray:
    try:
        bg = _local.philox
    except AttributeError:
        bg = _local.philox = np.random.Philox(0)   # keyed before every draw
    bg.state = {"bit_generator": "Philox",
                "state": {"counter": (c0, stage, source, 0), "key": key},
                "buffer": _EMPTY_BUFFER, "buffer_pos": 4,
                "has_uint32": 0, "uinteger": 0}
    return bg.random_raw(n_u64)


def uniforms(key: np.ndarray, traj: int, stage: int, source: int, n: int) -> np.ndarray:
    """n uniforms in [0, 1) for one trajectory at one (stage, source) cell."""
    blocks = _BLOCKS[source]
    if n > 4 * blocks:
        raise ValueError(f"source {source} supports at most {4 * blocks} draws per stage")
    raw = _raw(key, traj * blocks, stage, source, 4 * blocks)
    return raw[:n].astype(np.float64) * _U64_INV


def uniform(key: np.ndarray, traj: int, stage: int, source: int) -> float:
    """``uniforms(key, traj, stage, source, 1)[0]`` as a Python float."""
    blocks = _BLOCKS[source]
    return int(_raw(key, traj * blocks, stage, source, 1)[0]) * _U64_INV


def uniforms_batch(key: np.ndarray, n_traj: int, stage: int, source: int,
                   n_per: int) -> np.ndarray:
    """(n_traj, n_per) uniforms; row i equals the scalar draws for trajectory i."""
    blocks = _BLOCKS[source]
    if n_per > 4 * blocks:
        raise ValueError(f"source {source} supports at most {4 * blocks} draws per stage")
    raw = _raw(key, 0, stage, source, 4 * blocks * n_traj)
    out = raw.reshape(n_traj, 4 * blocks)[:, :n_per]
    return out.astype(np.float64) * _U64_INV
