"""Reference writer for ``aoi.sim``'s event trace: one f-string per row,
each float through ``repr``.

``sim._write_trace`` formats its float columns in bulk; its bytes must be
the ones this writer gives for the same arrays.
"""

from __future__ import annotations

import numpy as np


def write_trace(fh, services: np.ndarray, times: np.ndarray,
                served: np.ndarray, at: np.ndarray, busy_event: str) -> None:
    """Write to the text file ``fh`` every arrival (at ``times``:
    ``arrival_success`` when it is the first or follows a delivery, else
    ``busy_event``) and the delivery of each ``served`` arrival, which comes
    just before arrival ``at``."""
    code = np.ones(times.size, dtype=np.int8)
    code[np.append(0, at[:-1])] = 0
    code = np.insert(code, at, 2)
    row_time = np.insert(times, at, times[served] + services)
    newest = np.insert(np.zeros(times.size), at, times[served])
    age = row_time - np.maximum.accumulate(newest)
    names = ("arrival_success", busy_event, "departure")
    fh.write("time,event,age_after_event\n")
    fh.write("".join([f"{t!r},{names[e]},{a!r}\n" for t, e, a in zip(
        row_time.tolist(), code.tolist(), age.tolist())]))
