"""Shared fixtures: small systems per persistency model, and the
heap-only reference engine."""

import heapq

import pytest

from repro import GPUSystem, ModelName, PMPlacement, small_system
from repro.gpu.engine import Engine

ALL_MODELS = [ModelName.GPM, ModelName.EPOCH, ModelName.SBRP]


@pytest.fixture(params=ALL_MODELS, ids=lambda m: m.value)
def model(request) -> ModelName:
    return request.param


@pytest.fixture
def system(model) -> GPUSystem:
    """A small PM-far system under each persistency model."""
    return GPUSystem(small_system(model))


@pytest.fixture
def sbrp_system() -> GPUSystem:
    return GPUSystem(small_system(ModelName.SBRP))


@pytest.fixture
def near_system(model) -> GPUSystem:
    return GPUSystem(small_system(model, PMPlacement.NEAR))


def run_to_end(system: GPUSystem, kernel, blocks=1, args=(), kwargs=None):
    """Launch, drain, and return the kernel result."""
    result = system.launch(kernel, blocks, args=args, kwargs=kwargs)
    system.sync()
    return result


class _HeapFront:
    """Stands in for the engine's same-cycle FIFO: every append goes
    onto the heap instead, so the FIFO is always empty."""

    def __init__(self, heap):
        self._heap = heap

    def append(self, item) -> None:
        heapq.heappush(self._heap, item)

    def clear(self) -> None:
        pass

    def __len__(self) -> int:
        return 0


class HeapOnlyEngine(Engine):
    """:class:`Engine` with a single ``heapq`` for every event."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._fifo = _HeapFront(self._queue)

    def schedule(self, time, fn) -> None:
        self._seq += 1
        heapq.heappush(self._queue, (max(time, self.now), self._seq, fn))
