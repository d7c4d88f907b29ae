"""Exact float text: every per-row table (record CSV, plot CSV, APD CSV and
the arrays of the measurement report and the ground truth) goes through one
writer, ``_write_table``, which lays out a block of rows at a time with no
call per row, never the whole text at once. It spells a float as the bytes
of its ``repr``, built with double and integer array arithmetic that rounds
alike on every platform (``_shortest``; a few values go to ``repr()``
itself), once per run of consecutive values in a column that are equal bit
for bit (``-0.0`` and ``0.0`` differ): an exact-grid APD column changes
only at its own record's levels. All the float columns of a block are
spelled in one ``_shortest`` call, since each call has a fixed cost.
"""

from __future__ import annotations

import typing
from typing import Sequence

import numpy as np


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split of doubles: hi + lo == x, each of at most 26
    significant bits, exactly while x * (2**27 + 1) does not overflow."""
    c = x * 134217729.0
    hi = c - x
    np.subtract(c, hi, out=hi)
    return hi, np.subtract(x, hi, out=c)


_POW10_F = np.array([float(10**k) for k in range(22)])  # each an exact double
_POW10_HI, _POW10_LO = _split(_POW10_F)

# rows of a per-row table formatted and written at a time
_ROWS_PER_WRITE = 4096

# A float cell is 40 bytes: "-0.000", then 17 digits, each followed by a byte
# for a '.'. It holds its text's bytes in their places and 0 bytes elsewhere.
_CELL = 40
# _LANES[g]: the 4 digits of g < 10**4, each followed by a 0xFF byte, as one
# word; _LANES[10**4 + d]: 6 0xFF bytes, the digit d and a 0xFF byte
_DIGITS = np.indices((10,) * 4, np.uint8).reshape(4, -1).T  # _DIGITS[g]: g's 4 digits
_LANES = np.full((10**4, 4, 2), 0xFF, np.uint8)
_LANES[:, :, 0] = _DIGITS + 48
_LANES = _LANES.reshape(-1, 8).view(np.uint64).ravel()
_LANES = np.concatenate(
    [_LANES, _LANES[:10] | np.frombuffer(b"\xff\x00\xff\x00\xff\x00\x00\x00", np.uint64)]
)
# _TRAILING_ZEROS[g]: the trailing '0's of g < 10**4 spelled in 4 digits
_TRAILING_ZEROS = np.logical_and.accumulate(_DIGITS[:, ::-1] == 0, axis=1).sum(axis=1)


def _cell_masks() -> np.ndarray:
    """_CELL_MASKS[(20 * negative + e10 + 4) * 18 + kept]: the cell of a
    number with 10**e10 <= |x| < 10**(e10 + 1), -4 <= e10 <= 15, spelled
    with ``kept`` digits, as words: its fixed bytes ('-', "0.000", '.')
    where it has them, 0xFF at each of its digits and 0 elsewhere."""
    pos = np.arange(_CELL)
    negative, e10, kept = (a[..., None] for a in np.ix_(range(2), range(-4, 16), range(18)))
    prefix = (pos == 0) & (negative == 1) | (pos >= 1) & (pos < 2 - e10) & (e10 < 0)
    digits = np.where(pos % 2 == 0, (pos - 6) // 2 < kept, (pos - 7) // 2 == e10)
    chars = np.frombuffer(b"-0.000" + b"\xff." * 17, np.uint8)
    return (chars * np.where(pos < 6, prefix, digits)).reshape(-1, _CELL).view(np.uint64)


_CELL_MASKS = _cell_masks()


def _times_pow10(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, ...]:
    """Dekker's product of positive doubles ``a`` and 10**k, 0 <= k <= 21,
    each split into halves of 26 bits: P = fl(a 10**k) and E = a 10**k - P,
    exact unless a split or partial product overflows or underflows; then
    the midpoints between a and its neighbours (the bit patterns next to
    a's) scaled alike, less P: E plus the gap to each times 10**k / 2.

    E = a_hi p_hi - P + a_hi p_lo + a_lo p_hi + a_lo p_lo, in this order.
    Each product goes into a half or a power that it spends, so few steps
    allocate; ``k`` gathers the power tables fastest as intp."""
    (a_hi, a_lo), p10 = _split(a), _POW10_F.take(k)
    big = a * p10
    p_hi, p_lo = _POW10_HI.take(k), _POW10_LO.take(k)
    err = a_hi * p_hi
    err -= big
    err += np.multiply(a_hi, p_lo, out=a_hi)
    err += np.multiply(a_lo, p_hi, out=p_hi)
    err += np.multiply(a_lo, p_lo, out=p_lo)
    del p_hi, p_lo
    for gap, step in ((a_hi, -1), (a_lo, 1)):  # (a's bit neighbour - a) 10**k / 2 + E
        np.add(a.view(np.int64), step, out=gap.view(np.int64))
        gap -= a
        gap *= p10
        gap /= 2
        gap += err
    return big, err, a_hi, a_lo


def _scaled(a: np.ndarray, e10: np.ndarray) -> tuple[np.ndarray, ...]:
    """Positive doubles ``a`` scaled by 10**k, k = 16 - e10, into X, with the
    midpoints lo and hi between each and its neighbouring doubles scaled
    alike: floor(X) as int64, then X, lo and hi less floor(X) as doubles.

    ``_times_pow10`` gives P = fl(a 10**k) and E = a 10**k - P exactly, as no
    split or partial product overflows or underflows: for a in [1e-4, 1e16)
    and k in [1, 20] (or 0 and 21, where ``np.log10`` misjudges e10 by one),
    each is below 2**100, and each but 0 is at least 2**-66, a's last bit
    times an integer. P < 2**60 and |E| <= 64; floor(X) = P + floor(E) where
    X >= 2**53, and the sum is at most X elsewhere, so an X below 1e16 shows.
    a's gap to a neighbour is a power of 2, so a midpoint's distance from
    X, the gap times 10**k / 2, is exact. So X, lo and hi less floor(X) are
    exact values rounded at most twice, after adding E and that distance
    and after subtracting floor(E). Rounding is monotone and every integer
    and half of magnitude below 2**52 is a double, so each lies on the side
    of every integer and half that its exact value does, or lands on it."""
    big, err, below, above = _times_pow10(a, 16 - e10)
    floor = np.floor(err)
    return big.astype(np.int64) + floor.astype(np.int64), err - floor, below - floor, above - floor


def _shortest_digits(
    whole: np.ndarray, frac: np.ndarray, lo: np.ndarray, hi: np.ndarray, ok: np.ndarray
) -> tuple[np.ndarray, ...]:
    """The shortest decimal between lo and hi nearest X, given ``_scaled``, as
    a 17-digit integer; whether a multiple of 10 and of 100 lies between lo
    and hi; and ``ok`` cleared where a rounded value decides the result."""
    low, high = np.floor(lo), np.floor(hi)
    ok &= (lo != low) & (hi != high) & (whole >= 10**16) & (whole < 10**17)
    # relative to floor(X), the integers between lo and hi are low + 1 .. high
    low, high = low.astype(np.int64), high.astype(np.int64)
    span = high - low
    unit = whole - whole // 100 * 100  # floor(X) % 100
    r100 = unit + high
    r100 -= 100 * (r100 >= 100)  # (floor(X) + high) % 100
    hundreds = r100 < span  # a multiple of 100 in there
    tens = r100 - r100 // 10 * 10 < span  # a multiple of 10 in there
    unit -= unit // 10 * 10  # floor(X) % 10: X is place above the multiple of 10 at -unit
    place = unit + frac
    # the multiple of 10 at -unit or at 10 - unit; else the integer nearest X
    up = ((place > 5) | (unit + low >= 0)) & (10 - unit <= high)
    nearest = np.where(tens, 10 * up - unit, frac > 0.5)
    digits = whole + np.where(hundreds, high - r100, nearest)
    tie = np.where(tens, place == 5, frac == 0.5)
    ok &= (hundreds | ~tie) & (span > 0) & (digits < 10**17)
    return digits, tens, hundreds


def _shortest(values: np.ndarray) -> np.ndarray:
    """The float cells of ``values``, as words: each one's ``repr``.

    ``repr`` spells a double x with 1e-4 <= |x| < 1e16 in positional form,
    with the digits of the shortest decimal that reads back as x, the
    nearest to x of those. Scaled by 10**(16 - e10), with e10 =
    floor(log10(|x|)), |x| becomes X in [1e16, 1e17), and those decimals
    become the integers strictly between lo and hi, the scaled midpoints
    between x and its neighbouring doubles (``_scaled``). Both midpoints lie
    over 0.55 from X, and at most 23 integers lie between them. Their
    shortest is a multiple of the largest power of ten among them: a
    multiple of 100 is the only one, a multiple of 10 the nearer of two
    around X, and else the integer nearest X (``_shortest_digits``).

    X, lo and hi lie on the side of every integer and half that their exact
    values do, or land on it (``_scaled``). These values go to ``repr()``
    instead: one whose lo or hi lands on an integer, whose X lands halfway
    between the two nearest candidates, or whose e10 estimate
    (``np.log10``) is off; and any value outside [1e-4, 1e16) (zeros, NaN
    and infinities among them). The double and integer steps round alike
    on every platform and SIMD path, so the bytes do too.

    Declining a landed lo or hi changes no spelling, so no test can see
    it. Below 2**52 an exact scaled midpoint lies at least 2**-47 from
    every integer, farther than its two roundings move it, so it never
    lands. From 2**52 on, X is 10x, a multiple of 10, and the midpoints are
    10x -+ 5 or, from 2**53 with x even, 10x -+ 10: no multiple of 100,
    and farther from X than X is, so a landed one is never chosen.
    """
    a = np.abs(values)
    ok = (a >= 1e-4) & (a < 1e16)
    a[~ok] = 1.0
    e10 = np.floor(np.log10(a)).astype(np.intp)
    digits, tens, hundreds = _shortest_digits(*_scaled(a, e10), ok)
    digits[~ok] = 10**16
    # the 17 digits in groups of 1, 4, 4, 4 and 4
    upper = digits // 10**8
    lower = digits - upper * 10**8
    top, mid = upper // 10**4, lower // 10**4
    first = top // 10**4
    groups = np.stack([first, top - first * 10**4, upper - top * 10**4, mid, lower - mid * 10**4])
    # the digits end in no 0 without a multiple of 10 in there, in one 0
    # without a multiple of 100, and else in the multiple's trailing 0s
    kept = 17 - tens
    some = np.flatnonzero(hundreds)
    if some.size:
        g = groups[1:, some]
        zeros, empty = _TRAILING_ZEROS[g], g == 0
        trailing = zeros[3] + empty[3] * (zeros[2] + empty[2] * (zeros[1] + empty[1] * zeros[0]))
        kept[some] = 17 - trailing
    kept = np.maximum(kept, e10 + 2)  # at least one digit after the point
    groups[0] += 10**4  # the first digit's lanes
    cells = np.take(_CELL_MASKS, (((values < 0) * 20 + e10 + 4) * 18 + kept) * ok, axis=0)
    for k, group in enumerate(groups):
        cells[:, k] &= _LANES[group]
    declined = np.flatnonzero(~ok)
    if declined.size:
        cells[declined] = _repr_cells(values[declined])
    return cells


def _repr_cells(values: np.ndarray) -> np.ndarray:
    """The float cells of ``values``, as words, spelled by ``repr()`` itself."""
    spellings = list(map(repr, values.tolist()))
    return np.array(spellings, dtype=f"S{_CELL}").view(np.uint64).reshape(-1, 5)


def _float_cells(blocks: list[np.ndarray]) -> list[np.ndarray]:
    """The cells of float64 blocks, a row of bytes per value: the bytes of
    its ``repr``, once per run of bit-identical values in a block (so
    ``-0.0`` and ``0.0`` stay apart), and 0s, but no byte column all 0s of
    its block. The first values of every block's runs are spelled in one
    ``_shortest`` call, since each call has a fixed cost."""
    runs = [np.append(True, b[1:].view(np.int64) != b[:-1].view(np.int64)) for b in blocks]
    firsts = [b if run.all() else b[run] for b, run in zip(blocks, runs)]
    words = _shortest(firsts[0] if len(firsts) == 1 else np.concatenate(firsts))
    cells, start = [], 0
    for block, run, first in zip(blocks, runs, firsts):
        part = words[start : start + len(first)]
        start += len(first)
        if len(part) < len(block):
            part = np.take(part, np.cumsum(run) - 1, axis=0)
        used = np.bitwise_or.reduce(np.ascontiguousarray(part.T), axis=1).view(np.uint8) != 0
        cells.append(part.view(np.uint8)[:, used])
    return cells


def _cells(blocks: list) -> list[np.ndarray]:
    """A row of bytes per element of each block of a row of columns, its
    text and 0 bytes: the float64 blocks through one ``_float_cells``, a
    bytes block as its elements and a list as the ``str()`` of its
    elements (ASCII)."""
    blocks = [np.array(list(map(str, b)), "S") if isinstance(b, list) else b for b in blocks]
    floats = [b for b in blocks if b.dtype == np.float64]
    spelled = iter(_float_cells(floats) if floats else [])
    return [
        next(spelled) if b.dtype == np.float64 else b.view(np.uint8).reshape(len(b), -1)
        for b in blocks
    ]


def _write_table(
    fh: typing.BinaryIO, head: str, pieces: Sequence[str], columns: list,
    sep: str = "\n", tail: str = "\n",
) -> None:
    """Write ``head``, one row per element of the equal-length ``columns``
    joined by ``sep``, and ``tail`` to ``fh``, ``_ROWS_PER_WRITE`` rows at a
    time. A row is its cells (``_cells``) between the literal ``pieces``,
    one more than there are columns. No piece, ``sep`` or cell holds a NUL.

    A block is laid out as one byte matrix with a row per table row:
    ``sep`` and the first piece, then each column's cells and the piece
    after them. Every byte that is not text is 0, and one pass drops those.
    The float columns of a block are spelled together, in one call."""
    fh.write(head.encode())
    pieces = [np.frombuffer(p.encode(), np.uint8) for p in (sep + pieces[0], *pieces[1:])]
    for i in range(0, len(columns[0]), _ROWS_PER_WRITE):
        parts = [pieces[0]]
        for cells, piece in zip(_cells([c[i : i + _ROWS_PER_WRITE] for c in columns]), pieces[1:]):
            parts += [cells, piece]
        width = sum(part.shape[-1] for part in parts)
        matrix = bytearray(len(parts[1]) * width)
        rows = np.frombuffer(matrix, np.uint8).reshape(-1, width)
        at = 0
        for part in parts:
            rows[:, at : at + part.shape[-1]] = part
            at += part.shape[-1]
        text = matrix.translate(None, b"\0")
        fh.write(text if i else text[len(sep.encode()) :])
    fh.write(tail.encode())
