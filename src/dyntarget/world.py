"""Synthetic ground-track strips and their on-disk format.

A strip is a tall thin grid of reward classes: one column per along-track
timestep, one row per cross-track pixel.  The generator lays down compact
regions of the rarest class at roughly even along-track spacing, wraps
each one in a shell of the middle class, and leaves the most prevalent
class as background.  That mimics how high-value targets actually
present: a core of the interesting stuff ringed by second-tier material,
with long quiet stretches between systems.  Class prevalence is met
exactly while keeping the spatial correlation that makes lookahead
planning worthwhile in the first place.

Binary layout (little-endian throughout):

    bytes 0..3    magic b"DTG1"
    bytes 4..7    u32 height
    bytes 8..11   u32 length
    bytes 12..15  f32 pixel size in km
    bytes 16..    one class byte per cell, column by column

An optional sidecar ``<path>.manifest`` holds UTF-8 ``key=value`` lines
describing how the strip was produced.  It is informational only; loading
never reads it.

A keyed strip file (a benchmark's saved copy of a generated strip) has
the same layout with magic b"DTS1" and two more header fields:

    bytes 16..47  the strip key, ``strip_key`` of its generator params
    bytes 48..79  the strip's ``EnvStrip.digest()``
    bytes 80..    one class byte per cell, column by column
"""
from __future__ import annotations

import hashlib
import math
import os
import struct
from dataclasses import dataclass, field
from enum import IntEnum
from pathlib import Path
from typing import Mapping, Optional, Tuple

import numpy as np

from .errors import ConfigError, FormatError, ParameterError, ResourceError

MAGIC = b"DTG1"
HEADER = struct.Struct("<4sIIf")

# Refuse a strip with an absurd cell count before allocating it: a file
# header's claim before the payload is touched, a generator request before
# the board is.  2^31 cells is ~2 GiB, far past anything we simulate.
MAX_CELLS = 1 << 31


class RewardClass(IntEnum):
    """Reward tier of a single ground pixel, lowest to highest value."""

    LOW = 0
    MID = 1
    HIGH = 2


N_CLASSES = 3


@dataclass(frozen=True)
class RewardModel:
    """Per-class sample rewards.

    Off always earns 0, and the tiers must be finite and increase
    strictly, so the class order is also the reward order everywhere.
    """

    reward_low: float = 1.0
    reward_mid: float = 10.0
    reward_high: float = 100.0

    def __post_init__(self):
        rewards = (self.reward_low, self.reward_mid, self.reward_high)
        if not all(map(math.isfinite, rewards)):
            raise ParameterError(f"rewards must be finite: {', '.join(map(str, rewards))}")
        if not (self.reward_low < self.reward_mid < self.reward_high):
            raise ParameterError(
                "rewards must increase strictly: "
                f"{self.reward_low}, {self.reward_mid}, {self.reward_high}"
            )

    def check_horizon(self, horizon: int) -> None:
        """Raise ConfigError unless ``horizon`` steps of the largest reward
        in magnitude sum to a finite total, which bounds every episode
        total and planner value over that horizon."""
        largest = max(abs(self.reward_low), abs(self.reward_high))
        if not math.isfinite(largest * horizon):
            raise ConfigError(f"rewards up to {largest} in magnitude overflow a total "
                              f"over {horizon} steps")

    def values(self) -> np.ndarray:
        """Rewards indexed by RewardClass, as float64."""
        return np.array([self.reward_low, self.reward_mid, self.reward_high])

    def value_of(self, cls: RewardClass) -> float:
        return float(self.values()[int(cls)])


@dataclass
class EnvStrip:
    """Immutable class grid of shape (height, length).

    ``cells[r, c]`` is the RewardClass value of cross-track row ``r`` at
    along-track column ``c`` (column ``c`` is timestep ``c + 1``).
    Height must be odd so the nadir row is exact.
    """

    cells: np.ndarray
    pixel_size_km: float = 7.0

    # per-geometry summaries attached lazily by the simulator
    _caches: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        cells = np.ascontiguousarray(self.cells, dtype=np.uint8)
        if cells.ndim != 2:
            raise ParameterError(f"cells must be 2-D, got shape {cells.shape}")
        h, t = cells.shape
        if h < 1 or t < 1:
            raise ParameterError(f"empty strip: shape {cells.shape}")
        if h % 2 == 0:
            raise ParameterError(f"height must be odd, got {h}")
        if cells.size and int(cells.max()) >= N_CLASSES:
            raise ParameterError("cell values must be 0, 1 or 2")
        if not (self.pixel_size_km > 0):
            raise ParameterError(f"pixel size must be positive, got {self.pixel_size_km}")
        cells.flags.writeable = False
        self.cells = cells
        # keep what a float32 header round-trips, so save/load is identity
        self.pixel_size_km = float(np.float32(self.pixel_size_km))

    @property
    def height(self) -> int:
        return self.cells.shape[0]

    @property
    def length(self) -> int:
        return self.cells.shape[1]

    @property
    def center_row(self) -> int:
        return self.cells.shape[0] // 2

    def digest(self) -> str:
        """Content hash used to key caches and cross-check artifacts."""
        h = hashlib.sha256()
        h.update(HEADER.pack(MAGIC, self.height, self.length, self.pixel_size_km))
        h.update(self.cells.tobytes(order="F"))
        return h.hexdigest()


@dataclass(frozen=True)
class GenParams:
    """Knobs for the synthetic generator.

    ``prevalence`` is the target fraction of each class; targets are met
    exactly up to integer rounding.  ``blob_radius`` sets the mean region
    radius in pixels per class: for the rarest class it fixes the core
    size (and through it the core count), for classes grown standalone it
    is the mean blob radius, and for the background class it is unused.
    The shell class takes no radius; its thickness follows from how much
    prevalence budget it has to spread around the cores.
    """

    height: int = 31
    length: int = 10000
    prevalence: Tuple[float, float, float] = (0.64, 0.26, 0.10)
    blob_radius: Tuple[float, float, float] = (3.0, 4.0, 14.0)
    pixel_size_km: float = 7.0
    seed: int = 0

    def __post_init__(self):
        if self.height < 1 or self.height % 2 == 0:
            raise ParameterError(f"height must be odd and positive, got {self.height}")
        if self.length < 1:
            raise ParameterError(f"length must be positive, got {self.length}")
        for p in self.prevalence:
            if not (0.0 <= p <= 1.0):
                raise ParameterError(f"prevalence entries must lie in [0, 1]: {self.prevalence}")
        if abs(sum(self.prevalence) - 1.0) > 1e-9:
            raise ParameterError(f"prevalence must sum to 1, got {sum(self.prevalence)}")
        for r in self.blob_radius:
            if not (r > 0):
                raise ParameterError(f"blob radii must be positive: {self.blob_radius}")


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

# The generator's identity: the sha256 of the eight strip digests, as raw
# bytes in their listed order, that tests/test_world.py pins, one per
# generator branch.  A change to the generator's output has to edit those
# pins and so this constant, which is part of every strip key.
GENERATOR_ID = "1013e5ef303ff4577a620cdbb9f2f66bf0ac86df942d33eb58dfd28972001b1d"

# Growth runs on one flat bytearray of (h + 2) x (w + 2) cells: the strip
# inside a one-cell wall of _WALL, a byte that is no class.  Cell (r, c)
# sits at (r + 1) * stride + c + 1 with stride = w + 2, so a neighbour is
# free exactly when it holds the background byte, with no bounds check.
_WALL = 255

# Raw words per block of BlockIntegers: the first block is small, since a
# small blob or core takes only a few draws, and each refill doubles up to
# the cap, so a shell's ~10^5 draws never hold more than a few thousand
# words as Python ints at once.
_FIRST_BLOCK = 32
_MAX_BLOCK = 4096


class BlockIntegers:
    """``rng.integers(n)``, for 1 <= n <= 2**31, drawn from blocks of raw
    32-bit words: the same values, and after :meth:`close` the same
    generator state, as the scalar calls.

    ``rng.integers(0, 2**32, size=k, dtype=np.uint32)`` is numpy's raw
    32-bit word stream, and for such ``n`` numpy turns words into an index
    by Lemire's rule: with ``m = word * n``, accept when the low 32 bits
    of ``m`` are at least ``(2**32 - n) % n``, else take the next word;
    the index is ``m >> 32``.  ``n == 1`` takes no word.  A block may hold
    words no draw used, so :meth:`close` rewinds the generator to the
    last block's start and draws again only the words that were used.
    """

    def __init__(self, rng):
        self._rng = rng
        self._block = []
        self._used = 0
        self._start = None  # generator state before the last block

    def integers(self, n: int) -> int:
        if n == 1:
            return 0
        while True:
            if self._used == len(self._block):
                self._refill()
            m = self._block[self._used] * n
            self._used += 1
            low = m & 0xFFFFFFFF
            if low >= n or low >= (0x100000000 - n) % n:
                return m >> 32

    def _refill(self) -> None:
        size = min(2 * len(self._block), _MAX_BLOCK) if self._block else _FIRST_BLOCK
        self._start = self._rng.bit_generator.state
        self._block = self._rng.integers(0, 1 << 32, size=size, dtype=np.uint32).tolist()
        self._used = 0

    def close(self) -> None:
        """Leave the generator exactly as many words on as were used.
        Call it once, after the last draw."""
        if self._used < len(self._block):
            self._rng.bit_generator.state = self._start
            self._rng.integers(0, 1 << 32, size=self._used, dtype=np.uint32)


def _grow_region(board, stride, cls, budget, background, rng, frontier, placed=0) -> int:
    """Claim up to ``budget`` background cells reachable from ``frontier``.

    Frontier cells themselves are never claimed, only their background
    neighbours, so the same loop grows a blob from one seed or a shell
    from every boundary cell of an existing region.  Growth order is
    randomized for organic edges.  Returns the claimed-cell count.
    """
    steps = (-stride, stride, -1, 1)  # up, down, left, right
    draws = BlockIntegers(rng)
    draw = draws.integers
    pop = frontier.pop
    push = frontier.append
    while placed < budget and frontier:
        # take the drawn cell; the last one moves into its slot
        i = draw(len(frontier))
        p = frontier[i]
        frontier[i] = frontier[-1]
        pop()
        for d in steps:
            q = p + d
            if board[q] == background:
                board[q] = cls
                placed += 1
                push(q)
                if placed == budget:
                    break
    draws.close()
    return placed


def _grow_blob(board, h, w, cls, budget, background, rng) -> int:
    """Claim up to ``budget`` background cells as one connected region.

    Returns the number of cells actually claimed (0 if no background cell
    is left to seed from).
    """
    stride = w + 2
    # rejection-sample a seed; fall back to a full scan when the board is
    # nearly full so termination never depends on luck
    for _ in range(64):
        r = int(rng.integers(h))
        c = int(rng.integers(w))
        seed = (r + 1) * stride + c + 1
        if board[seed] == background:
            break
    else:
        free = np.flatnonzero(np.frombuffer(board, dtype=np.uint8) == background)
        if len(free) == 0:
            return 0
        seed = int(free[int(rng.integers(len(free)))])

    board[seed] = cls
    return _grow_region(board, stride, cls, budget, background, rng, [seed], placed=1)


def _fill_scattered(board, h, w, cls, need, mean_radius, background, rng) -> None:
    """Place ``need`` cells of ``cls`` as standalone blobs of random size."""
    while need > 0:
        radius = max(1.0, rng.exponential(mean_radius))
        size = min(need, max(1, int(round(math.pi * radius * radius))))
        placed = _grow_blob(board, h, w, cls, size, background, rng)
        if placed == 0:
            raise ParameterError("no background cells left while placing blobs")
        need -= placed


def _place_cores(board, h, w, cls, count, radius, background, rng) -> None:
    """Grow ``count`` cells of ``cls`` as evenly spaced compact cores.

    Core size is set by ``radius``; the along-track pitch follows from
    the cell budget.  Spacing jitter stays under a quarter pitch so cores
    never crowd together, which keeps the stretches between them quiet.
    """
    stride = w + 2
    area = math.pi * radius * radius
    n = max(1, int(round(count / area)))
    pitch = w / n
    margin = min(h // 2, int(round(radius)))
    share, extra = divmod(count, n)
    carry = 0
    for i in range(n):
        budget = share + (1 if i < extra else 0) + carry
        if budget <= 0:
            continue
        cx = int((i + 0.5) * pitch + (rng.random() - 0.5) * 0.5 * pitch)
        cx = min(max(cx, 0), w - 1)
        cy = int(rng.integers(margin, h - margin)) if margin < h - margin else h // 2
        # the first free cell from cx on along the drawn row, wrapping; if
        # the row is full, the first free cell after it in row-major order
        row = (cy + 1) * stride + 1
        seed = board.find(background, row + cx, row + w)
        if seed < 0:
            seed = board.find(background, row, row + cx)
        if seed < 0:
            seed = board.find(background, row + w)
        if seed < 0:
            seed = board.find(background)
        if seed < 0:
            raise ParameterError("no background cells left while placing cores")
        board[seed] = cls
        placed = _grow_region(board, stride, cls, budget, background, rng,
                              [seed], placed=1)
        carry = budget - placed
    if carry > 0:
        _fill_scattered(board, h, w, cls, carry, radius, background, rng)


def generate_synthetic(params: GenParams) -> EnvStrip:
    """Grow a strip matching ``params`` exactly in per-class cell counts.

    The most prevalent class becomes the background.  With two foreground
    classes, the rarer one is laid down as spaced cores and the other is
    grown outward from every core boundary at once, forming shells whose
    thickness comes out of its prevalence budget.  A lone foreground
    class is scattered as standalone blobs.  Deterministic in
    ``params.seed``.  Raises ResourceError, before allocating, for a
    strip of more than MAX_CELLS cells.
    """
    h, w = params.height, params.length
    total = h * w
    if total > MAX_CELLS:
        raise ResourceError(f"a {h}x{w} strip has {total} cells, over the limit of {MAX_CELLS}")
    counts = [int(round(p * total)) for p in params.prevalence]
    # rounding drift goes to the background class
    background = int(np.argmax(counts))
    counts[background] += total - sum(counts)
    if counts[background] < 0:
        raise ParameterError("prevalence rounding produced a negative count")

    rng = np.random.default_rng(params.seed)
    board = bytearray([_WALL]) * ((h + 2) * (w + 2))
    grid = np.frombuffer(board, dtype=np.uint8).reshape(h + 2, w + 2)
    grid[1:-1, 1:-1] = background

    others = [c for c in range(N_CLASSES) if c != background and counts[c] > 0]
    others.sort(key=lambda c: (counts[c], c))
    if len(others) == 2:
        core_cls, shell_cls = others
        _place_cores(board, h, w, core_cls, counts[core_cls],
                     params.blob_radius[core_cls], background, rng)
        # Every free cell reaches a core through free cells, and there are
        # counts[shell_cls] + counts[background] of them, so the shells
        # always meet their budget.
        frontier = np.flatnonzero(grid == core_cls).tolist()
        _grow_region(board, w + 2, shell_cls, counts[shell_cls],
                     background, rng, frontier)
    elif len(others) == 1:
        cls = others[0]
        _fill_scattered(board, h, w, cls, counts[cls],
                        params.blob_radius[cls], background, rng)

    # EnvStrip's ascontiguousarray makes the only copy of the interior
    return EnvStrip(grid[1:-1, 1:-1], pixel_size_km=params.pixel_size_km)


def class_fractions(strip: EnvStrip) -> Tuple[float, float, float]:
    """Fraction of cells in each class; always sums to 1."""
    counts = np.bincount(strip.cells.ravel(), minlength=N_CLASSES)
    frac = counts / strip.cells.size
    return (float(frac[0]), float(frac[1]), float(frac[2]))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

STRIP_MAGIC = b"DTS1"
STRIP_HEADER = struct.Struct("<4sIIf32s32s")

# A learner file's key: sha256 hex digests of the strips it was trained
# on, in order, of the models it was trained under and of its training
# params.  A learner trained outside a benchmark run names no inputs.
UNKEYED = ("0" * 64,) * 3


def read_checked(path, magic: bytes, header: struct.Struct) -> Tuple[bytes, tuple]:
    """Read ``path`` whose ``header`` starts with ``magic``.

    Returns the file bytes and the header fields after the magic.
    """
    data = Path(path).read_bytes()
    if data[: len(magic)] != magic:
        raise FormatError(f"bad magic, expected {magic!r}", offset=0)
    if len(data) < header.size:
        raise FormatError("truncated header", offset=len(data))
    return data, header.unpack_from(data, 0)[1:]


def check_size(data: bytes, expected: int) -> None:
    """Fail unless ``data`` is exactly ``expected`` bytes long."""
    if len(data) < expected:
        raise FormatError("truncated payload", offset=len(data))
    if len(data) > expected:
        raise FormatError("trailing bytes after payload", offset=expected)


def _replace(path: Path, parts) -> None:
    """Write ``parts`` in turn to a temporary file beside ``path``, then
    move it onto ``path``, so ``path`` never holds part of a file.

    The parts go out as separate writes, so a large payload is never
    copied to join them.  On any failure the temporary file is removed.
    """
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            for part in parts:
                fh.write(part)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_file(path, header: bytes, payload,
               manifest: Optional[Mapping[str, object]] = None) -> None:
    """Write ``header`` then ``payload`` (any C-contiguous buffer) to
    ``path``, and the ``<path>.manifest`` sidecar when there is a manifest.

    Each file is replaced whole or not at all: an interrupted write leaves
    the previous file, or none, at its name.
    """
    path = Path(path)
    _replace(path, (header, payload))
    if manifest is not None:
        lines = [f"{k}={v}\n" for k, v in manifest.items()]
        _replace(Path(f"{path}.manifest"), ("".join(lines).encode("utf-8"),))


def save_dataset(strip: EnvStrip, path, manifest: Optional[Mapping[str, object]] = None) -> None:
    """Write ``strip`` to ``path``; optionally write a manifest sidecar."""
    write_file(path, HEADER.pack(MAGIC, strip.height, strip.length, strip.pixel_size_km),
               strip.cells.tobytes(order="F"), manifest)


def _strip_from(data: bytes, offset: int, h: int, w: int, px: float) -> EnvStrip:
    """The ``h`` x ``w`` strip whose class bytes, column by column, fill
    ``data`` from ``offset`` to its end.

    Raises FormatError naming the byte offset on nonsense dimensions or
    pixel size, a truncated payload, trailing bytes or an invalid class
    byte.
    """
    if h == 0 or w == 0 or h * w > MAX_CELLS:
        raise FormatError(f"unreasonable dimensions {h}x{w}", offset=4)
    if h % 2 == 0:
        raise FormatError(f"height must be odd, got {h}", offset=4)
    if not (px > 0):
        raise FormatError(f"pixel size must be positive, got {px}", offset=12)
    check_size(data, offset + h * w)
    flat = np.frombuffer(data, dtype=np.uint8, count=h * w, offset=offset)
    bad = np.nonzero(flat >= N_CLASSES)[0]
    if bad.size:
        raise FormatError(
            f"invalid class byte {flat[bad[0]]}", offset=offset + int(bad[0])
        )
    cells = flat.reshape((w, h)).T
    return EnvStrip(cells, pixel_size_km=float(px))


def load_dataset(path) -> EnvStrip:
    """Read a strip written by :func:`save_dataset`.

    Raises FormatError naming the byte offset on a bad magic, truncated
    header or payload, trailing bytes, nonsense dimensions or pixel
    size, or an invalid class byte.
    """
    data, (h, w, px) = read_checked(path, MAGIC, HEADER)
    return _strip_from(data, HEADER.size, h, w, px)


def strip_key(params: GenParams) -> str:
    """Key of ``generate_synthetic(params)`` for a keyed strip file: a
    sha256 over every ``GenParams`` field, the generator's identity
    (``GENERATOR_ID``) and the numpy version, since numpy does not
    promise the same random streams across releases."""
    text = "\n".join((repr(params), GENERATOR_ID, np.__version__))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def save_keyed_strip(strip: EnvStrip, key: str, path) -> None:
    """Write ``strip`` to ``path`` as a keyed strip file under ``key``."""
    header = STRIP_HEADER.pack(STRIP_MAGIC, strip.height, strip.length, strip.pixel_size_km,
                               bytes.fromhex(key), bytes.fromhex(strip.digest()))
    write_file(path, header, strip.cells.tobytes(order="F"))


def load_keyed_strip(path) -> Tuple[str, EnvStrip]:
    """The key a keyed strip file names and the strip it holds.

    Raises FormatError as ``load_dataset`` does, and when the cells do
    not hash to the digest the header stores; so a damaged file never
    parses.
    """
    data, (h, w, px, key, digest) = read_checked(path, STRIP_MAGIC, STRIP_HEADER)
    strip = _strip_from(data, STRIP_HEADER.size, h, w, px)
    if strip.digest() != digest.hex():
        raise FormatError("cells do not match the stored digest", offset=STRIP_HEADER.size)
    return key.hex(), strip
