"""Golden traces: 3 models x 3 apps, under both event-queue disciplines.

The golden of each sim cell is its pin in ``grid_pins.json``: cycle
count, engine event count, every stats counter, and a hash of the crash
image.  Each cell runs twice:

* ``fast`` — the shipped :class:`~repro.gpu.engine.Engine`, whose
  same-cycle events bypass the heap through a FIFO (and which ``SM``
  schedules into inline);
* ``reference`` — the same engine with every event, FIFO appends
  included, routed through one plain ``heapq`` popped in ``(time, seq)``
  order.

Both must reproduce the golden bit-for-bit.  This is the whole-sim
counterpart of ``test_queue_property.py``: it shows the FIFO+heap merge
is invisible on real workloads, not only on synthetic schedules.
"""

from __future__ import annotations

import json

import pytest

import repro.gpu.device as device
from repro.perfcore import goldens
from repro.perfcore.fingerprint import sim_fingerprint
from repro.perfcore.grid import build_grid

from conftest import HeapOnlyEngine

PINS = json.loads(goldens.PINS["grid"].file.read_text(encoding="utf-8"))
SIM_CELLS = {
    cell.name[len("sim."):]: cell for cell in build_grid() if cell.kind == "sim"
}

#: Fields a run must reproduce exactly.
PINNED_FIELDS = (
    "cycles",
    "events",
    "stats",
    "crash_image_sha256",
)


def test_heap_only_engine_never_uses_the_fifo():
    engine = HeapOnlyEngine()
    log = []
    engine.schedule(5, lambda now: log.append(("a", now)))
    engine.schedule(0, lambda now: log.append(("b", now)))
    engine._fifo.append((0.0, 99, lambda now: log.append(("c", now))))
    assert len(engine._queue) == 3 and not engine._fifo
    engine.run()
    assert log == [("b", 0.0), ("c", 0.0), ("a", 5.0)]


@pytest.mark.parametrize("queue", ["reference", "fast"])
@pytest.mark.parametrize("key", sorted(SIM_CELLS))
def test_golden_trace(key: str, queue: str, monkeypatch):
    if queue == "reference":
        monkeypatch.setattr(device, "Engine", HeapOnlyEngine)
    payload = SIM_CELLS[key].payload
    got = sim_fingerprint(payload["model"], payload["app"], payload["params"])
    assert "error" not in got, got
    golden = PINS[f"sim.{key}"]
    mismatched = {
        field: {"want": golden[field], "got": got[field]}
        for field in PINNED_FIELDS
        if got[field] != golden[field]
    }
    assert not mismatched, (
        f"{queue} event queue diverged from the golden trace on {key}: "
        f"{json.dumps(mismatched, indent=2, default=str)[:2000]}"
    )
