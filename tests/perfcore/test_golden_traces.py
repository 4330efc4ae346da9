"""Satellite 2: golden-trace regression pins for 3 models x 3 apps.

``golden_traces.json`` snapshots the exact end-to-end behaviour of the
pre-fastcore seed — cycle counts, engine event counts, every stats
counter, and hashes of the crash image and metrics snapshot — for each
persistency model on gpkvs/reduction/scan.  Both engines — reference
and fast — must still reproduce those payloads bit-for-bit: any future
engine change that shifts timing fails here with a field-level diff,
not silently.

"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.perfcore.fingerprint import sim_fingerprint

GOLDEN_PATH = Path(__file__).parent / "golden_traces.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))

#: Fields a run must reproduce exactly.
PINNED_FIELDS = (
    "cycles",
    "events",
    "stats",
    "crash_image_sha256",
    "metrics_snapshot_sha256",
)


@pytest.mark.parametrize("engine", ["reference", "fast"])
@pytest.mark.parametrize("key", sorted(GOLDEN["cases"]))
def test_golden_trace(key: str, engine: str):
    case = GOLDEN["cases"][key]
    got = sim_fingerprint(case["model"], case["app"], case["app_params"], engine)
    assert "error" not in got, got
    mismatched = {
        field: {"want": case[field], "got": got[field]}
        for field in PINNED_FIELDS
        if got[field] != case[field]
    }
    assert not mismatched, (
        f"{engine} engine diverged from the golden trace on {key}: "
        f"{json.dumps(mismatched, indent=2, default=str)[:2000]}"
    )


def test_golden_file_covers_full_matrix():
    models = {case["model"] for case in GOLDEN["cases"].values()}
    apps = {case["app"] for case in GOLDEN["cases"].values()}
    assert models == {"gpm", "epoch", "sbrp"}
    assert apps == {"gpkvs", "reduction", "scan"}
    assert len(GOLDEN["cases"]) == 9
