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
                n = 4 * streams._BLOCKS[source]
                for key in keys:          # consecutive draws alternate keys
                    want = _fresh_draws(key, traj, stage, source)
                    got = streams.uniforms(key, traj, stage, source, n)
                    assert got.tobytes() == want.tobytes(), (traj, stage, source)
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
        return [[streams.uniforms(key, *cell, 4 * streams._BLOCKS[cell[2]]).tobytes()
                 for cell in cells] for _ in range(20)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)           # switch threads as often as possible
    try:
        with ThreadPoolExecutor(max_workers=len(keys)) as ex:
            got = list(ex.map(draw, keys, timeout=300))
    finally:
        sys.setswitchinterval(interval)
    for k in range(len(keys)):
        for rep in got[k]:
            assert rep == want[k]
