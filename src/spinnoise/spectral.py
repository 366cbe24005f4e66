"""One-sided PSD estimation with spectrum-analyzer-style RBW/VBW semantics.

Welch averaging with a Hann window at 50% overlap; the segment length is
chosen so the window's equivalent noise bandwidth (1.5 bins for Hann)
matches the requested resolution bandwidth.  Video bandwidth is emulated
by smoothing the finished trace, which reproduces the variance reduction
of the analog video filter at negligible cost.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import math
import typing
from collections.abc import Callable
from concurrent.futures import Executor
from dataclasses import dataclass, field

import numpy as np

from .exceptions import DomainError

#: Equivalent noise bandwidth of the periodic Hann window, in bins.
HANN_ENBW_BINS = 1.5

# The most windowed samples a WelchAccumulator joins and transforms at a
# time: a segment of as many traces as fit, at least one.
_WELCH_SCRATCH_SAMPLES = 2**18


@dataclass(eq=False)
class SpectrumRecord:
    """A one-sided PSD trace plus the settings that produced it."""

    freqs: np.ndarray          # Hz, strictly increasing from >= 0
    psd: np.ndarray            # V^2/Hz or a.u.^2/Hz, >= 0
    rbw: float                 # Hz, achieved resolution bandwidth
    n_averages: int
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.freqs = np.asarray(self.freqs, dtype=float)
        self.psd = np.asarray(self.psd, dtype=float)
        if self.freqs.shape != self.psd.shape:
            raise DomainError("freqs and psd must have the same length")
        if not np.all(np.isfinite(self.freqs)):
            raise DomainError("freqs entries must be finite")
        if self.freqs.size and (self.freqs[0] < 0 or np.any(np.diff(self.freqs) <= 0)):
            raise DomainError("freqs must be strictly increasing and start >= 0")
        if not np.all((self.psd >= 0) & (self.psd < np.inf)):
            raise DomainError("psd entries must be finite and >= 0")
        if not 0 < self.rbw < math.inf:
            raise DomainError(f"rbw must be finite and > 0, got {self.rbw}")
        if not self.n_averages >= 1:
            raise DomainError(f"n_averages must be >= 1, got {self.n_averages}")

    @property
    def df(self) -> float:
        return float(self.freqs[1] - self.freqs[0])


@dataclass(frozen=True)
class PeakReport:
    """Floor-subtracted integrated power around one resonance."""

    peak_freq: float    # Hz, centroid
    peak_power: float   # V^2 (or a.u.^2), integrated over the window
    window: float       # Hz, full analysis width


def hann_window(n: int) -> np.ndarray:
    """The periodic Hann window of n samples, for spectral analysis.

    Built as ``scipy.signal.get_window("hann", n)`` builds it (a general
    cosine window with coefficients 0.5, 0.5 on n + 1 points, last one
    dropped), so the two are the same bits; it needs no scipy.signal.
    """
    if n < 2:
        return np.ones(n)
    fac = np.linspace(-np.pi, np.pi, n + 1)
    w = np.zeros(n + 1)
    for k, a in enumerate((0.5, 0.5)):
        w += a * np.cos(k * fac)
    return w[:-1]


def next_fast_len(target: int) -> int:
    """The smallest n >= target >= 1 whose prime factors are all <= 11, as
    ``scipy.fft.next_fast_len(target)`` gives it: a fast FFT length.  Each
    odd 11-smooth m is taken at its least power-of-two multiple >= target,
    so the search takes milliseconds for any target up to 2**53."""
    target = max(1, target)
    power_of_two = 1 << (target - 1).bit_length()
    odd = [1]
    for p in (3, 5, 7, 11):
        for m in list(odd):
            while m * p < power_of_two:
                m *= p
                odd.append(m)
    return min(m << (-(-target // m) - 1).bit_length() for m in odd)


def segment_length(dt: float, rbw_target: float) -> int:
    """FFT segment length whose Hann ENBW approximates rbw_target, up to 2**53."""
    if not 0 < rbw_target < math.inf:
        raise DomainError(f"rbw_target must be finite and > 0, got {rbw_target}")
    n_exact = HANN_ENBW_BINS / (rbw_target * dt)
    if not n_exact <= 2**53:
        raise DomainError(f"rbw={rbw_target:g} Hz needs segments of {n_exact:.3g} samples, over 2**53")
    return next_fast_len(max(8, round(n_exact)))


def welch_psd(
    signal: np.ndarray,
    dt: float,
    rbw_target: float,
    metadata: dict | None = None,
) -> SpectrumRecord:
    """One-sided Welch PSD with an ESA-like resolution bandwidth.

    Hann window, 50% overlap, density normalization: the PSD integrates to
    the mean square of the signal (Parseval within 1% for stationary
    inputs).  No detrending is applied, so a DC component lands in the
    lowest bins.
    """
    x = np.asarray(signal, dtype=float)
    if x.ndim != 1:
        raise DomainError(f"signal must be one-dimensional, got shape {x.shape}")
    return welch_psd_batch(x[:, None], dt, rbw_target, metadata=metadata)[0]


def welch_psd_batch(
    signals: np.ndarray,
    dt: float,
    rbw_target: float,
    metadata: dict | None = None,
) -> list[SpectrumRecord]:
    """Welch PSD of each column of an (n_samples, n_traces) array.

    The same estimate as ``scipy.signal.welch`` per column (periodic Hann
    window, 50% overlap, no detrending, one-sided density): one push of the
    whole array, trace-major, into a WelchAccumulator.
    """
    x = np.asarray(signals, dtype=float)
    if x.ndim != 2:
        raise DomainError(f"signals must be two-dimensional, got shape {x.shape}")
    accumulator = WelchAccumulator(x.shape[1], dt, rbw_target)
    accumulator.push(x.T)
    return accumulator.records(metadata)


class WelchAccumulator:
    """Streaming Welch PSD of n_traces signals fed in time order.

    ``push`` takes the next n samples of every trace, for any n, as an array
    whose last axis is samples and whose leading axes, in C order, index
    the traces.  It reads them in place and holds the unfinished segment's
    samples in one (n_traces, nseg - 1) buffer.  Each completed segment,
    whether it begins in the buffer or in the pushed samples, is joined
    into one array, windowed and transformed on its own, and its power is
    added to a running sum, in order.  That array takes the segment of as
    many traces as fit _WELCH_SCRATCH_SAMPLES samples, at least one, and
    the traces go through it in groups of that many (each row is
    transformed alone, so a trace's bits do not depend on the grouping).
    So the spectra are the same bits however the series is cut into
    pushes, and a push's scratch does not grow with its length or, beyond
    one group, with the number of traces.  A push of several groups whose
    leading axes do not merge into one is copied once to (n_traces, n).

    The estimate's layout is derived here once: ``nseg``, ``hop`` and ``rbw``
    at construction, ``window``, ``freqs`` and ``density_scale`` at first use
    and the power sum and buffers at the first push, so building one costs
    no memory.
    """

    def __init__(self, n_traces: int, dt: float, rbw_target: float):
        if n_traces < 1:
            raise DomainError(f"need n_traces >= 1, got {n_traces}")
        if not 0 < dt < math.inf:
            raise DomainError(f"dt must be finite and > 0, got {dt}")
        self.fs = 1.0 / dt
        self.rbw_target = rbw_target
        self.nseg = segment_length(dt, rbw_target)
        self.hop = self.nseg - self.nseg // 2
        self.rbw = HANN_ENBW_BINS / (self.nseg * dt)
        self.n_traces = n_traces
        self.n_samples = 0
        self.n_segments = 0

    @functools.cached_property
    def window(self) -> np.ndarray:
        return hann_window(self.nseg)

    @functools.cached_property
    def freqs(self) -> np.ndarray:
        return np.fft.rfftfreq(self.nseg, 1.0 / self.fs)

    @functools.cached_property
    def density_scale(self) -> float:
        return 1.0 / (self.fs * np.sum(self.window**2))

    def require(self, n_samples: int) -> None:
        """Raise a DomainError unless n_samples samples per trace hold the
        two 50%-overlapped segments that an estimate needs."""
        if n_samples < self.nseg + self.hop:
            raise DomainError(
                f"series too short for rbw={self.rbw_target:g} Hz: need at least "
                f"{self.nseg + self.hop} samples ({self.nseg}-sample segments), got {n_samples}"
            )

    def push(self, samples: np.ndarray) -> None:
        x = np.asarray(samples, dtype=float)
        if x.ndim < 2 or math.prod(x.shape[:-1]) != self.n_traces:
            raise DomainError(f"expected samples of shape ({self.n_traces}, n), got {x.shape}")
        *lead, n = x.shape
        nseg, hop = self.nseg, self.hop
        if not self.n_samples:
            rows = min(self.n_traces, max(1, _WELCH_SCRATCH_SAMPLES // nseg))
            self._power = np.zeros((self.n_traces, nseg // 2 + 1))
            self._buffer = np.empty((self.n_traces, nseg - 1))
            self._windowed = np.empty((rows, nseg))
            self._spectra = np.empty((rows, nseg // 2 + 1), dtype=complex)
        # Offsets count from the buffer's first sample: it holds [0, held),
        # and x follows it.  held < nseg before and after every push.
        held = self.n_samples - self.n_segments * hop
        buffer = self._buffer.reshape(*lead, nseg - 1)
        n_new = max(0, 1 + (held + n - nseg) // hop)
        rows = len(self._windowed)
        groups = [(buffer, x, self._power)]
        if n_new and rows < self.n_traces:
            flat = x.reshape(self.n_traces, n)
            groups = [
                (self._buffer[lo : lo + rows], flat[lo : lo + rows], self._power[lo : lo + rows])
                for lo in range(0, self.n_traces, rows)
            ]
        for start in range(0, n_new * hop, hop):
            for held_rows, pushed_rows, power in groups:
                # This segment's samples still held, then the pushed ones.
                parts = (
                    held_rows[..., min(start, held) : held],
                    pushed_rows[..., max(0, start - held) : start + nseg - held],
                )
                windowed = self._windowed[: len(power)]
                np.concatenate(parts, axis=-1, out=windowed.reshape(*held_rows.shape[:-1], nseg))
                self._add_power(windowed, power)
        first = n_new * hop
        if 0 < first < held:
            # Not overlapping: first >= hop >= nseg / 2 > held - first.
            buffer[..., : held - first] = buffer[..., first:held]
        buffer[..., max(0, held - first) : held + n - first] = x[..., max(0, first - held) :]
        self.n_samples += n
        self.n_segments += n_new

    def _add_power(self, windowed: np.ndarray, power: np.ndarray) -> None:
        """Window and transform the segments of a group of traces joined
        into ``windowed``, rows of ``_windowed``, and add their power to
        ``power``, the same rows of the running sum."""
        windowed *= self.window
        squares = np.fft.rfft(windowed, axis=-1, out=self._spectra[: len(windowed)]).view(float)
        np.square(squares, out=squares)
        np.add(squares[:, ::2], squares[:, 1::2], out=squares[:, ::2])
        power += squares[:, ::2]

    def records(
        self, metadata: dict | None = None, traces: slice = slice(None)
    ) -> list[SpectrumRecord]:
        """The PSD of each trace (or of the ``traces`` slice of them) over
        all samples pushed so far."""
        self.require(self.n_samples)
        psd = self._power[traces] / self.n_segments
        # Density scaling; every bin but DC (and Nyquist, for even nseg) is
        # doubled to fold in the negative frequencies.
        psd *= self.density_scale
        psd[:, 1 : None if self.nseg % 2 else -1] *= 2.0
        meta = dict(metadata or {})
        return [
            SpectrumRecord(self.freqs, row, rbw=self.rbw, n_averages=self.n_segments, metadata=dict(meta))
            for row in psd
        ]


def video_average(spec: SpectrumRecord, vbw: float) -> SpectrumRecord:
    """Emulate a video filter by trace smoothing.

    A moving average over round(rbw/vbw) bins gives the same variance
    reduction on uncorrelated bins as the analog video bandwidth; the
    kernel is symmetric, so peak centers do not move.  The kernel is
    clamped to the trace length.
    """
    if not vbw > 0:
        raise DomainError(f"vbw must be > 0, got {vbw}")
    if vbw > spec.rbw:
        raise DomainError(f"vbw ({vbw:g} Hz) must not exceed rbw ({spec.rbw:g} Hz)")
    width = round(spec.rbw / vbw)
    if width % 2 == 0:
        width += 1
    width = min(width, spec.psd.size if spec.psd.size % 2 else spec.psd.size - 1)
    psd = spec.psd
    if width > 1:
        kernel = np.ones(width) / width
        psd = np.convolve(spec.psd, kernel, mode="same")
        # Renormalize the shrinking kernel overlap at the trace edges.
        psd /= np.convolve(np.ones_like(spec.psd), kernel, mode="same")
    return dataclasses.replace(spec, psd=psd, metadata={**spec.metadata, "vbw_hz": vbw})


def average_spectra(specs: list[SpectrumRecord]) -> SpectrumRecord:
    """Pointwise mean of spectra on identical grids; n_averages add up.

    Each bin is summed in value-sorted order, so the result is bit-identical
    under any permutation of the inputs.
    """
    if not specs:
        raise DomainError("average_spectra needs at least one spectrum")
    first = specs[0]
    for s in specs[1:]:
        if s.freqs.shape != first.freqs.shape or np.any(s.freqs != first.freqs):
            raise DomainError("spectra must share an identical frequency grid")
        if s.metadata != first.metadata:
            raise DomainError("spectra must share identical metadata to be averaged")
        if s.rbw != first.rbw:
            raise DomainError("spectra must share the same rbw to be averaged")
    stack = np.sort(np.stack([s.psd for s in specs], axis=0), axis=0)
    mean = stack.sum(axis=0) / len(specs)
    return dataclasses.replace(
        first, psd=mean, n_averages=sum(s.n_averages for s in specs),
        metadata=dict(first.metadata),
    )


def find_peak(
    spec: SpectrumRecord,
    around: float,
    halfwidth: float,
    floor: "SpectrumRecord | float" = 0.0,
) -> PeakReport:
    """Integrated, floor-subtracted power in a window around a resonance.

    Returns the centroid frequency of the clipped excess PSD and its
    integral over [around - halfwidth, around + halfwidth]; the power is
    clamped at >= 0.  ``floor`` may be a constant or a spectrum on the same
    grid.
    """
    if not (math.isfinite(around) and 0 < halfwidth < math.inf):
        raise DomainError(f"need a finite around and halfwidth > 0, got {around} and {halfwidth}")
    lo, hi = around - halfwidth, around + halfwidth
    if lo < spec.freqs[0] or hi > spec.freqs[-1]:
        raise DomainError(
            f"window [{lo:g}, {hi:g}] Hz lies outside the analyzed band "
            f"[{spec.freqs[0]:g}, {spec.freqs[-1]:g}] Hz"
        )
    if isinstance(floor, SpectrumRecord):
        if floor.freqs.shape != spec.freqs.shape or np.any(floor.freqs != spec.freqs):
            raise DomainError("floor spectrum must share the signal's frequency grid")
        floor_values = floor.psd
    else:
        floor_values = float(floor)
    mask = (spec.freqs >= lo) & (spec.freqs <= hi)
    excess = np.clip(spec.psd[mask] - (floor_values[mask] if isinstance(floor_values, np.ndarray) else floor_values), 0.0, None)
    power = float(excess.sum() * spec.df)
    weight = excess.sum()
    centroid = float((spec.freqs[mask] * excess).sum() / weight) if weight > 0 else float(around)
    return PeakReport(peak_freq=centroid, peak_power=power, window=2.0 * halfwidth)


# Keys written as '#'-prefixed metadata lines, in order.
_CSV_META_KEYS = (
    "theta_deg", "b_gauss", "delta_hz", "mode", "rbw_hz", "vbw_hz", "n_averages", "seed",
)


def format_value(value) -> str:
    """One value as the package writes it: None as empty, bools as
    true/false, floats by their shortest exact repr, anything else by str."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


# Rows formatted and written at a time by write_table: the text of a block,
# not of the whole table, is what it holds.
_TABLE_BLOCK_ROWS = 4096
# Blocks a write_table with an executor has out at a time: formatting,
# formatted or waiting to be written in order.
_TABLE_BLOCKS_IN_FLIGHT = 4


def _format_rows(arrays: list[np.ndarray]) -> str:
    """The table rows of equal-length 1-D float arrays, each value by its
    exact repr, each row ended by a newline: one %-format (%r is repr) of
    the row-major values."""
    row = ",".join(["%r"] * len(arrays)) + "\n"
    return row * len(arrays[0]) % tuple(np.column_stack(arrays).ravel().tolist())


def _format_range(read: Callable[[int, int], list[np.ndarray]], start: int, stop: int) -> str:
    """The table rows [start, stop) of the columns ``read`` returns."""
    return _format_rows(read(start, stop))


class TableRows(typing.NamedTuple):
    """Columns that write_table reads by row range: ``read(start, stop)``
    returns the 1-D float columns of rows [start, stop).  An executor's
    workers get ``read`` and a range, not the rows, so ``read`` is a
    module-level function, or a partial of one, that reads memory the
    workers share with the caller."""

    names: tuple[str, ...]
    n_rows: int
    read: Callable[[int, int], list[np.ndarray]]


def write_table(
    path, metadata: dict, columns: dict | TableRows, executor: Executor | None = None
) -> None:
    """Write the package's table layout: one ``# key=value`` line per
    metadata entry, in order, a header of the column names, then one row per
    sample of the 1-D float columns, each value by its exact repr.

    ``columns`` maps names to columns, or is a TableRows.  The rows are
    formatted _TABLE_BLOCK_ROWS at a time.  With an ``executor``, which
    takes TableRows only, the workers read and format the blocks, at most
    _TABLE_BLOCKS_IN_FLIGHT at a time, and the blocks are written in order;
    the bytes are the same either way.  Columns of unequal length are
    refused before the file is opened.
    """
    if isinstance(columns, TableRows):
        names, n_rows, read = columns
    elif executor is not None:
        raise TypeError("write_table formats TableRows on an executor, not columns")
    else:
        names = tuple(columns)
        arrays = [np.asarray(column, dtype=float) for column in columns.values()]
        lengths = {name: len(array) for name, array in zip(names, arrays)}
        if len(set(lengths.values())) > 1:
            raise DomainError(f"table columns must have equal lengths, got {lengths}")
        n_rows = max(lengths.values(), default=0)

        def read(start: int, stop: int) -> list[np.ndarray]:
            return [array[start:stop] for array in arrays]

    head = [f"# {key}={format_value(value)}" for key, value in metadata.items()]
    head.append(",".join(names))
    blocks = [
        (read, start, min(start + _TABLE_BLOCK_ROWS, n_rows))
        for start in range(0, n_rows, _TABLE_BLOCK_ROWS)
    ]
    with open(path, "w", newline="\n") as handle:
        handle.write("\n".join(head) + "\n")
        if executor is None:
            for block in blocks:
                handle.write(_format_range(*block))
            return
        pending: collections.deque = collections.deque()
        for block in blocks:
            if len(pending) == _TABLE_BLOCKS_IN_FLIGHT:
                handle.write(pending.popleft().result())
            pending.append(executor.submit(_format_range, *block))
        while pending:
            handle.write(pending.popleft().result())


def write_spectrum_csv(spec: SpectrumRecord, path) -> None:
    """Write one spectrum as a table: the _CSV_META_KEYS metadata first, the
    rest sorted, then freq_hz and psd."""
    meta = dict(spec.metadata)
    meta.setdefault("rbw_hz", spec.rbw)
    meta.setdefault("n_averages", spec.n_averages)
    order = [key for key in _CSV_META_KEYS if key in meta]
    order += sorted(key for key in meta if key not in _CSV_META_KEYS)
    write_table(path, {key: meta[key] for key in order}, {"freq_hz": spec.freqs, "psd": spec.psd})


def read_spectrum_csv(path) -> SpectrumRecord:
    """Read back a spectrum written by write_spectrum_csv.

    A DomainError that names the file refuses a missing or non-numeric
    rbw_hz or n_averages line, a data row that is not two numbers and
    anything SpectrumRecord refuses: an rbw_hz that is not finite and > 0,
    an n_averages below 1, freq_hz not strictly increasing from >= 0 and a
    psd that is negative or not finite.
    """
    meta: dict = {}
    freqs: list[float] = []
    psd: list[float] = []
    with open(path) as handle:
        for number, line in enumerate(handle, 1):
            line = line.strip()
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition("=")
                meta[key.strip()] = value
            elif line and not line.startswith("freq_hz"):
                try:
                    f, p = map(float, line.split(","))
                except ValueError:
                    raise DomainError(f"{path}: line {number} is not two numbers: {line!r}") from None
                freqs.append(f)
                psd.append(p)
    values = []
    for key, kind, what in (("rbw_hz", float, "a number"), ("n_averages", int, "an integer")):
        if key not in meta:
            raise DomainError(f"{path}: no {key} line")
        try:
            values.append(kind(meta[key]))
        except ValueError:
            raise DomainError(f"{path}: {key}={meta[key]} is not {what}") from None
    rbw, n_averages = values
    try:
        return SpectrumRecord(np.array(freqs), np.array(psd), rbw=rbw, n_averages=n_averages, metadata=meta)
    except DomainError as exc:
        raise DomainError(f"{path}: {exc}") from None
