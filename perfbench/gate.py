"""Output gate: payload digests, exact counts and paper anchors.

Every repetition the benchmark times is also checked.  Its canonical
payloads must hash to the SHA-256 digests recorded in ``expected.json``
beside this file, the simulated-work counts a pure speed-up cannot
change (events, engines, TLPs, bytes, trace records) must equal the
recorded ones, and the workload's paper anchors must pass.  A
repetition that fails any check counts as a failed operation.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.model.anchors import anchors_for

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

#: Exact counts summed from the per-engine metrics document of an
#: instrumented repetition: metric name -> (counter prefix, suffix).
COUNTER_SUMS = {
    "pcie.tlps": ("link.", ".tlps"),
    "pcie.wire_bytes": ("link.", ".wire_bytes"),
    "pcie.replayed_tlps": ("link.", ".replays"),
    "pcie.switch_forwarded": ("switch.", ".forwarded"),
    "peach2.routed": ("peach2.", ".routed"),
    "peach2.dma_chains": ("dma.", ".chains"),
    "hw.mem_bytes_written": ("mem.", ".bytes_written"),
    "hw.pio_stores": ("cpu.", ".pio_stores"),
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digest_mismatches(payloads: Mapping[str, Optional[str]],
                      expected: Mapping[str, str]) -> List[str]:
    """Names whose payload text is missing or hashes differently."""
    return [name for name, digest in expected.items()
            if payloads.get(name) is None
            or sha256(payloads[name]) != digest]


def count_mismatches(counts: Mapping[str, int],
                     expected: Mapping[str, int],
                     names: Sequence[str]) -> List[str]:
    """``name: got != want`` for every name in ``names`` whose count
    differs from the recorded one.  A count the repetition did not
    carry, or one never recorded, is a mismatch too."""
    return [f"{name}: {counts.get(name)} != {expected.get(name)}"
            for name in names
            if name not in counts or name not in expected
            or counts[name] != expected[name]]


def counter_sums(metrics_document: Mapping) -> Dict[str, int]:
    """The exact pcie/peach2/hw counts of one metrics document."""
    sums = {name: 0 for name in COUNTER_SUMS}
    for engine in metrics_document["engines"]:
        for counter, data in engine["metrics"].items():
            if data.get("type") != "counter":
                continue
            for name, (prefix, suffix) in COUNTER_SUMS.items():
                if counter.startswith(prefix) and counter.endswith(suffix):
                    sums[name] += data["value"]
    return sums


def anchor_report(payloads: Mapping[str, str]
                  ) -> Tuple[Dict[str, float], List[str], List[str]]:
    """Check every anchor the payloads cover.

    Returns ``(errors, passed, failed)``: |measured/paper - 1| of each
    ``near`` anchor that was measured, and the names of the anchors that
    passed and failed.  Anchors reading points the payloads lack are
    skipped.
    """
    errors: Dict[str, float] = {}
    passed: List[str] = []
    failed: List[str] = []
    for name, text in payloads.items():
        payload = json.loads(text)
        for anchor in anchors_for(name):
            check = anchor.check(payload)
            if check.status == "pass":
                passed.append(anchor.name)
            elif check.status == "fail":
                failed.append(anchor.name)
            if (anchor.cmp == "near" and check.measured is not None
                    and anchor.paper):
                errors[anchor.name] = abs(check.measured / anchor.paper - 1)
    return errors, passed, failed


def load_expected(path: Path = EXPECTED_PATH) -> Dict[str, Dict]:
    """Recorded digests and counts, by workload."""
    return json.loads(path.read_text(encoding="utf-8"))


def save_expected(workload: str, record: Dict,
                  path: Path = EXPECTED_PATH) -> None:
    doc = load_expected(path) if path.exists() else {}
    doc[workload] = record
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
