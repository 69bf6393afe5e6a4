import numpy as np

from chargesched import streams


def test_batch_rows_equal_scalar_slices():
    key = streams.philox_key(123)
    batch = streams.uniforms_batch(key, 16, stage=9, source=streams.STAY, n_per=20)
    for i in (0, 3, 15):
        row = streams.uniforms(key, i, 9, streams.STAY, 20)
        assert np.array_equal(batch[i], row)


def test_cells_are_independent_addresses():
    key = streams.philox_key(5)
    a = streams.uniform(key, 0, 4, streams.GRID)
    assert a == streams.uniform(key, 0, 4, streams.GRID)
    assert a != streams.uniform(key, 0, 5, streams.GRID)
    assert a != streams.uniform(key, 1, 4, streams.GRID)
    assert a != streams.uniform(key, 0, 4, streams.DEMAND)
    assert a != streams.uniform(streams.philox_key(6), 0, 4, streams.GRID)


def test_values_in_unit_interval():
    key = streams.philox_key(7)
    u = streams.uniforms_batch(key, 100, 0, streams.REQUEST, 32)
    assert (u >= 0).all() and (u < 1).all()


def test_draw_capacity_enforced():
    key = streams.philox_key(7)
    try:
        streams.uniforms(key, 0, 0, streams.GRID, 5)
    except ValueError:
        pass
    else:
        raise AssertionError("expected ValueError for oversubscribed source")


SOURCES = sorted(streams._BLOCKS)


def _fresh_draws(key, traj, stage, source):
    """Every uniform of one cell from a newly constructed Philox generator."""
    blocks = streams._BLOCKS[source]
    counter = np.array([traj * blocks, stage, source, 0], dtype=np.uint64)
    raw = np.random.Philox(key=key, counter=counter).random_raw(4 * blocks)
    return raw.astype(np.float64) * 2.0 ** -64


def test_scalar_draws_equal_a_fresh_generator():
    keys = (streams.philox_key(11), streams.philox_key(12))
    for traj in (0, 1, 7, 40_000):
        for stage in (0, 3, 999):
            for source in SOURCES:
                full = 4 * streams._BLOCKS[source]
                for key in keys:          # consecutive draws alternate keys
                    want = _fresh_draws(key, traj, stage, source)
                    for n in sorted({1, full - 1, full}):   # n draws are the cell's first n
                        got = streams.uniforms(key, traj, stage, source, n)
                        assert got.tobytes() == want[:n].tobytes(), (traj, stage, source, n)
                    u = streams.uniform(key, traj, stage, source)
                    assert type(u) is float and u == want[0]


def test_scalar_draws_from_concurrent_threads():
    import sys
    import threading
    from concurrent.futures import ThreadPoolExecutor

    keys = [streams.philox_key(100 + k) for k in range(4)]
    cells = [(traj, stage, source) for traj in range(3) for stage in range(12)
             for source in SOURCES]
    want = [[_fresh_draws(key, *cell).tobytes() for cell in cells] for key in keys]
    start = threading.Barrier(len(keys))

    def draw(key):
        start.wait(timeout=60)
        reps = []
        for _ in range(20):
            # A window per repetition, open in every thread at once: the staged
            # draws of trajectory 1 come from newly filled blocks, the rest
            # from the thread's generator.
            with streams.stage_window(key, 1, streams.MIN_WINDOW_STAGES):
                reps.append([(streams.uniforms(key, *cell, 4 * streams._BLOCKS[cell[2]]
                                               ).tobytes(),
                              streams.uniform(key, *cell)) for cell in cells])
        return reps

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)           # switch threads as often as possible
    try:
        with ThreadPoolExecutor(max_workers=len(keys)) as ex:
            got = list(ex.map(draw, keys, timeout=300))
    finally:
        sys.setswitchinterval(interval)
    for k in range(len(keys)):
        expected = [(raw, np.frombuffer(raw)[0]) for raw in want[k]]
        for rep in got[k]:
            assert rep == expected


STAGED = (streams.GRID, streams.DEMAND, streams.OUTCOME)


def test_stage_blocks_equal_a_fresh_generator():
    key = streams.philox_key(11)
    B = streams.BLOCK_STAGES
    for traj in (0, 7, 40_000):
        for source in STAGED:
            for start, n in ((0, 1), (5, 37), (B - 3, 7), (B, 1), (2 * B - 1, 1)):
                stages = range(start, start + n)
                words = streams._stage_words(key, traj, source, start, n)
                want = [np.random.Philox(key=key, counter=np.array(
                            [traj, t, source, 0], dtype=np.uint64)).random_raw(1)[0]
                        for t in stages]
                assert words.dtype == np.uint64 and words.tolist() == want
                assert (streams.stage_block(key, traj, source, start, n)
                        == [_fresh_draws(key, traj, t, source)[0] for t in stages])


def test_stage_window_serves_blocks_and_nothing_else(monkeypatch):
    """Inside a window, staged draws of its (key, traj) come from blocks;
    draws for other keys, trajectories, sources or stages past the horizon
    go to the generator, and every draw equals a fresh generator's."""
    key, other = streams.philox_key(21), streams.philox_key(22)
    same_value = key.copy()               # equal bits, but not the window's key
    B = streams.BLOCK_STAGES
    real, per_call = streams._keyed, []

    def counting(*args):
        per_call.append(args[1:])
        return real(*args)

    monkeypatch.setattr(streams, "_keyed", counting)
    for horizon in (B + 1, B + 904):      # last block of length 1, and not a multiple
        with streams.stage_window(key, 3, horizon):
            draws = []
            for t in [0, 1, B - 1, B, horizon - 1, 2, B + 1 if horizon > B + 1 else 0]:
                for source in STAGED:     # interleave sources, keys and trajectories
                    draws.append((key, 3, t, source, True))
                    draws.append((other, 3, t, source, False))
                    draws.append((key, 4, t, source, False))
                    draws.append((same_value, 3, t, source, False))
                draws.append((key, 3, t, streams.STAY, False))
            draws.append((key, 3, horizon, streams.GRID, False))   # past the horizon
            for k, traj, t, source, blocked in draws:
                per_call.clear()
                u = streams.uniform(k, traj, t, source)
                assert u == _fresh_draws(k, traj, t, source)[0], (traj, t, source)
                assert (per_call == []) == blocked, (traj, t, source)
        assert streams._local.window is None
    with streams.stage_window(key, 3, streams.MIN_WINDOW_STAGES - 1):
        assert streams._local.window is None  # too short to pay for a block


def test_stage_windows_nest():
    key = streams.philox_key(23)
    with streams.stage_window(key, 0, 200):
        outer = streams._local.window
        with streams.stage_window(key, 1, 300):
            assert streams.uniform(key, 1, 250, streams.GRID) == _fresh_draws(key, 1, 250, 0)[0]
            assert streams.uniform(key, 0, 150, streams.GRID) == _fresh_draws(key, 0, 150, 0)[0]
        assert streams._local.window is outer
        assert streams.uniform(key, 0, 150, streams.GRID) == _fresh_draws(key, 0, 150, 0)[0]


def test_batch_start_offsets_the_trajectories():
    key = streams.philox_key(9)
    whole = streams.uniforms_batch(key, 10, 4, streams.STAY, 5)
    part = streams.uniforms_batch(key, 4, 4, streams.STAY, 5, 6)
    assert part.tobytes() == whole[6:].tobytes()
    assert part[0].tobytes() == streams.uniforms(key, 6, 4, streams.STAY, 5).tobytes()


def test_a_key_is_read_again_unless_it_is_the_read_only_key_last_used():
    # `_keyed` keeps the ints of the last read-only key; a writable key may
    # change between draws, so its current words are read every time.
    key = streams.philox_key(31)
    assert not key.flags.writeable
    mutable = streams.philox_key(32).copy()
    draws = []
    for k in (key, mutable, key, mutable, mutable):
        got = streams.uniforms(k, 2, 5, streams.STAY, 4).tobytes()
        assert got == _fresh_draws(k, 2, 5, streams.STAY)[:4].tobytes()
        if k is mutable:
            draws.append(got)
            mutable[1] ^= 1         # the next draw with it must see this
    assert len(set(draws)) == 2     # the words alternate: no stale key was used
