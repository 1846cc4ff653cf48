"""Strip generation and the dataset file format."""
import contextlib
import hashlib
import signal
import types

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dyntarget import (
    EnvStrip,
    GenParams,
    RewardClass,
    class_fractions,
    generate_synthetic,
    load_dataset,
    save_dataset,
)
from dyntarget import world
from dyntarget.errors import FormatError, ParameterError, ResourceError
from dyntarget.world import (
    HEADER,
    MAGIC,
    _place_cores,
    load_keyed_strip,
    save_keyed_strip,
    strip_key,
    write_file,
)


def uniform(height, length, cls):
    return EnvStrip(np.full((height, length), int(cls), dtype=np.uint8))


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

def test_degenerate_prevalence_gives_uniform_strip():
    params = GenParams(height=5, length=64, prevalence=(1.0, 0.0, 0.0), seed=3)
    strip = generate_synthetic(params)
    assert np.all(strip.cells == int(RewardClass.LOW))


def test_fractions_match_prevalence():
    params = GenParams(height=31, length=10000, prevalence=(0.7, 0.2, 0.1), seed=42)
    fracs = class_fractions(generate_synthetic(params))
    # per-class cell counts are met exactly up to rounding, so the
    # measured fractions land far inside any statistical tolerance
    assert fracs == pytest.approx((0.7, 0.2, 0.1), abs=1e-3)


def test_same_seed_is_bit_identical():
    params = GenParams(height=9, length=500, seed=42)
    a = generate_synthetic(params)
    b = generate_synthetic(params)
    assert np.array_equal(a.cells, b.cells)


def test_different_seeds_differ():
    a = generate_synthetic(GenParams(height=9, length=500, seed=1))
    b = generate_synthetic(GenParams(height=9, length=500, seed=2))
    assert not np.array_equal(a.cells, b.cells)


@pytest.mark.parametrize("length,tol", [(5000, 0.05), (50000, 0.02)])
def test_prevalence_convergence(length, tol):
    params = GenParams(height=31, length=length, seed=7)
    fracs = class_fractions(generate_synthetic(params))
    for got, want in zip(fracs, params.prevalence):
        assert abs(got - want) <= tol


def test_two_foreground_classes_form_cores_with_shells():
    # the rarest class should sit inside the middle class most of the
    # time: count High cells whose 4-neighbourhood ever touches Low
    params = GenParams(height=31, length=4000, seed=11)
    cells = generate_synthetic(params).cells
    high = np.argwhere(cells == 2)
    touching_low = 0
    h, w = cells.shape
    for r, c in high:
        for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
            rr, cc = r + dr, c + dc
            if 0 <= rr < h and 0 <= cc < w and cells[rr, cc] == 0:
                touching_low += 1
                break
    assert touching_low / len(high) < 0.1


class StuckRng:
    """Stand-in generator whose every draw is the low end of its range.

    Each blob seed then lands on cell (0, 0) and each core on the same
    row, so small boards reach the rejection sampler's full-scan
    fallback and the core placer's walk to the next free column.  A
    block of raw words (a ``size=`` draw) is all 1s, which Lemire's rule
    turns into index 0 for every n; a word of 0 would be rejected for
    ever whenever 2**32 % n is not 0.
    """

    def __init__(self, seed):
        self.bit_generator = types.SimpleNamespace(state={})

    def integers(self, low, high=None, size=None, dtype=None):
        if size is not None:
            return np.ones(size, dtype=np.uint32)
        return np.int64(0 if high is None else low)

    def random(self):
        return 0.5

    def exponential(self, scale):
        return scale


# Recorded from the numpy-grid generator.  Seeds, dp_cache keys and every
# report depend on these bytes, so a rewrite must reproduce them exactly.
PINNED = [
    (dict(height=31, length=400, seed=1), False,
     "cfe74f80b2fabc289b1ee794e08854e1fae7bb74649260ac757dec79d1b7c48d"),
    (dict(height=1, length=50, seed=0), False,
     "7e4efa2bc276729e6eaf86f8ee52896349ecff3e7b3bb04d98a57bc4faea8fd5"),
    (dict(height=9, length=300, prevalence=(0.7, 0.0, 0.3), seed=2), False,
     "ae5086775dc1a3b15f6fe908c0e4572498bfdfda7a8059162ee9363494137b05"),
    (dict(height=5, length=64, prevalence=(0.0, 0.0, 1.0), seed=3), False,
     "67d5a580f7f03cdc32f1e9fa926c8c5560c7737690d7b4664aac244e8f233932"),
    (dict(height=31, length=400, prevalence=(0.34, 0.33, 0.33), seed=0), False,
     "3443ed9c337019818c076f558637b5c34ddfa03670c38965b0fd80e3aea600b1"),
    (dict(height=5, length=7, prevalence=(0.34, 0.33, 0.33), seed=4), False,
     "714ea709fbef32f734d635b7a420b48c1f05c226d78eebb65236bfdf4d39f9e8"),
    (dict(height=1, length=12, prevalence=(0.6, 0.4, 0.0),
          blob_radius=(0.5, 0.5, 0.5)), True,
     "5726c582e5cf311b7fd873cc86d0f80ca32037e9be689b164fd1fd4556fecb97"),
    (dict(height=3, length=9, prevalence=(0.34, 0.33, 0.33),
          blob_radius=(0.5, 0.5, 0.5)), True,
     "8c848d2dacdaf88d546cb15d743295e441349526392785a77e05a76acd29a863"),
]


@pytest.mark.parametrize("kwargs, stuck, digest", PINNED,
                         ids=["cores-shells", "height-1", "lone-class", "degenerate", "core-walk",
                              "tiny-board", "stuck-blob-fallback", "stuck-core-walk"])
def test_generated_strips_are_pinned(monkeypatch, kwargs, stuck, digest):
    if stuck:
        monkeypatch.setattr(np.random, "default_rng", StuckRng)
    assert generate_synthetic(GenParams(**kwargs)).digest() == digest


def test_a_long_strip_is_pinned():
    # outside PINNED, so GENERATOR_ID and every strip key stay as they
    # are: 129k draws cross many word-block refills.  None of them is
    # rejected (for n up to ~10^5 the chance is under 3e-5 a draw), so
    # the rejection branch is left to the block-draw test below.
    strip = generate_synthetic(GenParams(length=10000, seed=0))
    assert strip.digest() == "89dca58daa574a49e852d0f0cffb6547dbf07d8de5c4ad4898e45cce242adb30"


def test_the_generator_identity_hashes_the_pinned_digests():
    # a change to the generator's output edits the pins above, so it also
    # changes the identity, and with it every strip key
    pins = b"".join(bytes.fromhex(digest) for _, _, digest in PINNED)
    assert world.GENERATOR_ID == hashlib.sha256(pins).hexdigest()


N_VALUES = [1, 2, 3, 7, 1000, 2**16 + 1, 2**30 + 3, 2**31]
FIRST = world._FIRST_BLOCK

DRAW_SEQUENCES = {
    "none": [],
    "ones": [1] * 5,  # n == 1 takes no word
    "every-n": [N_VALUES[i % len(N_VALUES)] for i in range(10_000)],  # past the cap
    "first-block-exactly": [2] * FIRST,  # powers of two are never rejected
    "one-past-a-block": [2] * (FIRST + 1),
    "rejections": [2**30 + 3] * 3000,  # about 1 word in 4 is rejected
}


@pytest.mark.parametrize("seed", [0, 7, 2024])
@pytest.mark.parametrize("ns", DRAW_SEQUENCES.values(), ids=DRAW_SEQUENCES.keys())
def test_block_draws_are_numpys_scalar_draws(seed, ns):
    want = np.random.default_rng(seed)
    expected = [int(want.integers(n)) for n in ns]
    rng = np.random.default_rng(seed)
    draws = world.BlockIntegers(rng)
    assert [draws.integers(n) for n in ns] == expected
    draws.close()
    assert rng.bit_generator.state == want.bit_generator.state
    assert rng.random() == want.random()


def test_the_rejection_sequence_rejects_words():
    # numpy's own draws take more words than there are draws, so the
    # rejection branch is what the "rejections" sequence tests
    ns = DRAW_SEQUENCES["rejections"]
    scalar = np.random.default_rng(0)
    for n in ns:
        scalar.integers(n)
    one_word_each = np.random.default_rng(0)
    one_word_each.integers(0, 1 << 32, size=len(ns), dtype=np.uint32)
    assert scalar.bit_generator.state != one_word_each.bit_generator.state


@contextlib.contextmanager
def returns_within(seconds):
    """Fail, rather than hang, if the body runs past ``seconds``."""
    def hung(signum, frame):
        raise TimeoutError(f"did not return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_a_core_drawn_on_a_full_row_moves_to_the_next_free_cell():
    # two earlier cores fill both cells of a row the third core then
    # draws; the walk along that row alone would never end
    params = GenParams(height=5, length=2,
                       prevalence=(0.2851094285676319, 0.3691156364418775, 0.3457749349904906),
                       blob_radius=(0.3, 1.0, 1.6), seed=86)
    with returns_within(5):
        strip = generate_synthetic(params)
    assert np.bincount(strip.cells.ravel(), minlength=3).tolist() == [3, 4, 3]


def test_cores_on_a_board_with_no_free_cell_are_refused():
    board = bytearray([1]) * 16
    with returns_within(5), pytest.raises(ParameterError):
        _place_cores(board, 2, 2, 2, 1, 1.0, 0, np.random.default_rng(0))


def test_over_limit_strip_is_refused_before_allocating():
    # 31 x 10^11 cells: refused by the cell cap, never handed to an allocator
    with pytest.raises(ResourceError):
        generate_synthetic(GenParams(height=31, length=10**11))


@pytest.mark.parametrize(
    "kwargs",
    [
        {"prevalence": (0.5, 0.3, 0.1)},          # sums to 0.9
        {"prevalence": (1.1, -0.1, 0.0)},         # entry out of range
        {"height": 0},
        {"height": 4},                            # even, no nadir row
        {"length": 0},
        {"blob_radius": (0.0, 4.0, 14.0)},
    ],
)
def test_bad_gen_params_rejected(kwargs):
    with pytest.raises(ParameterError):
        GenParams(**kwargs)


@pytest.mark.parametrize(
    "cells,kwargs",
    [
        (np.zeros((4, 6), dtype=np.uint8), {}),             # even height
        (np.zeros((3, 0), dtype=np.uint8), {}),             # empty
        (np.full((3, 3), 3, dtype=np.uint8), {}),           # bad class byte
        (np.zeros((3, 3, 3), dtype=np.uint8), {}),          # not 2-D
        (np.zeros((3, 3), dtype=np.uint8), {"pixel_size_km": 0.0}),
    ],
)
def test_bad_strips_rejected(cells, kwargs):
    with pytest.raises(ParameterError):
        EnvStrip(cells, **kwargs)


# ---------------------------------------------------------------------------
# fractions
# ---------------------------------------------------------------------------

def test_fractions_of_uniform_strip():
    assert class_fractions(uniform(3, 4, RewardClass.LOW)) == (1.0, 0.0, 0.0)


def test_fractions_count_cells():
    strip = EnvStrip(np.array([[0, 0, 1, 2]], dtype=np.uint8))
    assert class_fractions(strip) == (0.5, 0.25, 0.25)


def test_fractions_sum_to_one():
    strip = generate_synthetic(GenParams(height=9, length=300, seed=5))
    assert sum(class_fractions(strip)) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_round_trip_small_strip(tmp_path):
    strip = uniform(3, 5, RewardClass.HIGH)
    path = tmp_path / "tiny.dtg"
    save_dataset(strip, path)
    back = load_dataset(path)
    assert np.array_equal(back.cells, strip.cells)
    assert back.pixel_size_km == strip.pixel_size_km
    assert back.digest() == strip.digest()


def test_reserialization_is_byte_identical(tmp_path):
    strip = generate_synthetic(GenParams(height=31, length=10000, seed=42))
    first = tmp_path / "a.dtg"
    second = tmp_path / "b.dtg"
    save_dataset(strip, first)
    save_dataset(load_dataset(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_manifest_sidecar(tmp_path):
    strip = uniform(3, 4, RewardClass.MID)
    path = tmp_path / "x.dtg"
    save_dataset(strip, path, manifest={"scenario": "cloud_avoidance", "seed": 9})
    sidecar = tmp_path / "x.dtg.manifest"
    assert sidecar.read_text(encoding="utf-8") == "scenario=cloud_avoidance\nseed=9\n"
    # loading never depends on the sidecar
    sidecar.unlink()
    assert np.array_equal(load_dataset(path).cells, strip.cells)


def test_corrupt_magic(tmp_path):
    path = tmp_path / "bad.dtg"
    strip = uniform(3, 4, RewardClass.LOW)
    save_dataset(strip, path)
    data = bytearray(path.read_bytes())
    data[:4] = b"NOPE"
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError) as err:
        load_dataset(path)
    assert err.value.offset == 0


def test_truncated_header(tmp_path):
    path = tmp_path / "bad.dtg"
    path.write_bytes(MAGIC + b"\x03\x00")
    with pytest.raises(FormatError) as err:
        load_dataset(path)
    assert err.value.offset == 6


def test_unreasonable_dimensions(tmp_path):
    path = tmp_path / "bad.dtg"
    path.write_bytes(HEADER.pack(MAGIC, 0, 5, 7.0))
    with pytest.raises(FormatError) as err:
        load_dataset(path)
    assert err.value.offset == 4

    path.write_bytes(HEADER.pack(MAGIC, 1 << 16, 1 << 16, 7.0))
    with pytest.raises(FormatError) as err:
        load_dataset(path)
    assert err.value.offset == 4


@pytest.mark.parametrize(
    "height, pixel, offset",
    [(2, 7.0, 4), (4, 7.0, 4), (3, -1.0, 12), (3, 0.0, 12), (3, float("nan"), 12)],
)
def test_header_values_the_strip_rejects(tmp_path, height, pixel, offset):
    path = tmp_path / "bad.dtg"
    path.write_bytes(HEADER.pack(MAGIC, height, 5, pixel) + b"\x00" * (height * 5))
    with pytest.raises(FormatError) as err:
        load_dataset(path)
    assert err.value.offset == offset


def test_truncated_payload(tmp_path):
    path = tmp_path / "bad.dtg"
    path.write_bytes(HEADER.pack(MAGIC, 3, 5, 7.0) + b"\x00" * 10)
    with pytest.raises(FormatError) as err:
        load_dataset(path)
    assert err.value.offset == HEADER.size + 10


def test_trailing_bytes(tmp_path):
    path = tmp_path / "bad.dtg"
    path.write_bytes(HEADER.pack(MAGIC, 3, 5, 7.0) + b"\x00" * 16)
    with pytest.raises(FormatError) as err:
        load_dataset(path)
    assert err.value.offset == HEADER.size + 15


def test_invalid_class_byte(tmp_path):
    path = tmp_path / "bad.dtg"
    payload = bytearray(15)
    payload[7] = 9
    path.write_bytes(HEADER.pack(MAGIC, 3, 5, 7.0) + bytes(payload))
    with pytest.raises(FormatError) as err:
        load_dataset(path)
    assert err.value.offset == HEADER.size + 7


@given(
    seed=st.integers(0, 2**32 - 1),
    height=st.sampled_from([1, 3, 5]),
    length=st.integers(1, 8),
    pixel=st.floats(0.25, 50.0),
)
def test_round_trip_identity(tmp_path_factory, seed, height, length, pixel):
    rng = np.random.default_rng(seed)
    strip = EnvStrip(
        rng.integers(0, 3, size=(height, length), dtype=np.uint8),
        pixel_size_km=pixel,
    )
    path = tmp_path_factory.mktemp("rt") / "s.dtg"
    save_dataset(strip, path)
    back = load_dataset(path)
    assert np.array_equal(back.cells, strip.cells)
    assert back.pixel_size_km == strip.pixel_size_km


def test_digest_tracks_content():
    a = uniform(3, 4, RewardClass.LOW)
    cells = a.cells.copy()
    cells[1, 2] = 1
    b = EnvStrip(cells)
    assert a.digest() != b.digest()
    assert a.digest() == uniform(3, 4, RewardClass.LOW).digest()


# ---------------------------------------------------------------------------
# keyed strip files and interrupted writes
# ---------------------------------------------------------------------------

KEY_PARAMS = GenParams(height=5, length=40, seed=3)


def test_a_keyed_strip_reads_back_only_under_its_key(tmp_path):
    strip = generate_synthetic(KEY_PARAMS)
    key = strip_key(KEY_PARAMS)
    path = tmp_path / "s.dts"
    with pytest.raises(FileNotFoundError):
        load_keyed_strip(path)
    save_keyed_strip(strip, key, path)
    named, back = load_keyed_strip(path)
    assert np.array_equal(back.cells, strip.cells)
    assert back.pixel_size_km == strip.pixel_size_km
    assert back.digest() == strip.digest()
    assert named == key != strip_key(GenParams(height=5, length=40, seed=4))


def damaged(data, how):
    data = bytearray(data)
    if how == "truncated":
        return bytes(data[:-1])
    if how == "trailing":
        return bytes(data) + b"\0"
    if how == "magic":
        data[:4] = MAGIC  # a .dtg magic
    elif how == "class_byte":
        data[-1] = 3
    elif how == "flipped_cell":  # still a valid class, so it parses
        data[-1] = (data[-1] + 1) % 3
    return bytes(data)


@pytest.mark.parametrize("how", ["truncated", "trailing", "magic", "class_byte",
                                 "flipped_cell"])
def test_a_damaged_keyed_strip_file_reads_as_none(tmp_path, how):
    # a damaged file never parses, so a benchmark run reads it as a miss
    key = strip_key(KEY_PARAMS)
    path = tmp_path / "s.dts"
    save_keyed_strip(generate_synthetic(KEY_PARAMS), key, path)
    path.write_bytes(damaged(path.read_bytes(), how))
    with pytest.raises(FormatError):
        load_keyed_strip(path)


def test_an_interrupted_write_keeps_the_previous_file(tmp_path):
    path = tmp_path / "a.dtg"
    save_dataset(uniform(3, 4, RewardClass.MID), path, manifest={"seed": 1})
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    # the header goes out, then writing the payload raises
    with pytest.raises(TypeError):
        write_file(path, HEADER.pack(MAGIC, 3, 4, 7.0), object(), manifest={"seed": 2})
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
