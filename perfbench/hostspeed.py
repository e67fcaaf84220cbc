"""Host-speed calibration for timings taken in the benchmark's own
process.

The measuring host is shared: the same pure-Python work runs up to
1.7x slower from one second to the next, in phases that last from
seconds to minutes, so a raw wall time says as much about the host as
about the program.  Each timed sample is therefore bracketed by two
timings of a fixed kernel that depends on nothing in the repository
(``ast.unparse`` of a fixed synthetic module: pure-Python tree
walking, method dispatch and string building, like the compiler and
the interpreter), and reported scaled to the host speed at which the
kernel takes ``REFERENCE_S``:

    scaled = measured * REFERENCE_S / kernel

where ``kernel`` is the mean of the two bracketing kernel timings on
the same clock (wall or CPU).  A change to the program moves the scaled
time as it moves the raw time; a change of host speed moves both the
sample and the kernel, and cancels.
"""

from __future__ import annotations

import ast
import statistics
import time
from typing import List, Sequence, Tuple

#: Wall seconds of one kernel run on the reference host (the 2-vCPU
#: host of NOTES.md, at the median of its speed).
REFERENCE_S = 0.010
#: Kernel runs per calibration mark (their median is the mark).
KERNEL_REPEATS = 3


def _source(functions: int = 40) -> str:
    lines: List[str] = []
    for i in range(functions):
        lines += [
            f"def f{i}(a, b=({i}, 'k{i}'), *rest, **kw):",
            f"    x = [a * {i} + y for y in range(b[0]) if y % 3]",
            "    for k, v in kw.items():",
            "        if k.startswith('p') and v is not None:",
            "            x.append({k: v, 'n': len(rest)})",
            "        elif not v:",
            "            continue",
            "    try:",
            f"        return f{(i + 1) % functions}(x, b, *rest) or x[-1]",
            "    except (KeyError, IndexError) as e:",
            "        raise ValueError(str(e)) from e",
            "",
        ]
    return "\n".join(lines)


_TREE = ast.parse(_source())


def kernel() -> Tuple[float, float]:
    """(wall, CPU) seconds of the fixed kernel: the median of
    ``KERNEL_REPEATS`` runs, which damps the host's jitter."""
    runs = []
    for _ in range(KERNEL_REPEATS):
        w0, c0 = time.perf_counter(), time.process_time()
        ast.unparse(_TREE)
        runs.append((time.perf_counter() - w0, time.process_time() - c0))
    return (statistics.median(w for w, _c in runs),
            statistics.median(c for _w, c in runs))


class Calibrated:
    """Timed samples, each between two kernel timings.

    ``begin()`` times the kernel before a stretch of samples (call it
    again after any pause); ``add()`` records one sample's timings and
    times the kernel after it.  A sample is a tuple of wall-clock
    seconds and a tuple of CPU seconds."""

    def __init__(self) -> None:
        self._last = None
        #: (wall timings, CPU timings, kernel before, kernel after)
        self._rows: list = []

    def begin(self) -> None:
        self._last = kernel()

    def add(self, wall: Sequence[float], cpu: Sequence[float] = ()) -> None:
        if self._last is None:
            raise RuntimeError("Calibrated.add before begin")
        after = kernel()
        self._rows.append((tuple(wall), tuple(cpu), self._last, after))
        self._last = after

    def __len__(self) -> int:
        return len(self._rows)

    def wall(self, column: int) -> List[float]:
        """Column ``column`` of the wall timings, scaled."""
        return [w[column] * 2 * REFERENCE_S / (k0[0] + k1[0])
                for w, _c, k0, k1 in self._rows]

    def cpu(self, column: int) -> List[float]:
        """Column ``column`` of the CPU timings, scaled by the
        kernel's CPU time."""
        return [c[column] * 2 * REFERENCE_S / (k0[1] + k1[1])
                for _w, c, k0, k1 in self._rows]

    def raw_wall(self, column: int) -> List[float]:
        return [w[column] for w, _c, _k0, _k1 in self._rows]

    def kernel_s(self) -> List[float]:
        """Wall seconds of the kernel timing after every sample."""
        return [k1[0] for _w, _c, _k0, k1 in self._rows]
