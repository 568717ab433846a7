"""Golden profile fingerprints: the step-1 profile of every app must not
drift while the generator underneath it changes.

One fingerprint per (app, latency recording) at seed 0: the CRC-32 and
dtype of every :class:`~repro.trace.columnar.ColumnarTrace` column,
plus ``GroundTruth.total_misses`` and ``misses_by_site``. The fixture
``profile_fingerprints.json`` is committed; regenerate it only
deliberately, when a change is meant to move the profiles, with::

    PYTHONPATH=src python tests/apps/test_profile_fingerprint.py
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro.apps.registry import APP_NAMES, get_app
from repro.trace.columnar import COLUMN_DTYPES
from repro.trace.tracer import TracerConfig

FIXTURE = Path(__file__).with_name("profile_fingerprints.json")
APPS = (*APP_NAMES, "phaseshift")
SEED = 0


def _case_id(app: str, latency: bool) -> str:
    return f"{app}/latency={'on' if latency else 'off'}"


def profile_fingerprint(app: str, latency: bool) -> dict:
    model = get_app(app)
    run = model.run_profiling(
        seed=SEED,
        tracer_config=TracerConfig(
            sampling_period=model.sampling_period, record_latency=latency
        ),
    )
    columns = {}
    for name in COLUMN_DTYPES:
        column = np.ascontiguousarray(getattr(run.trace, name))
        columns[name] = (
            f"{column.dtype.str}:{column.size}:"
            f"{zlib.crc32(column.tobytes()):08x}"
        )
    truth = run.ground_truth
    return {
        "columns": columns,
        "total_misses": truth.total_misses,
        "misses_by_site": dict(sorted(truth.misses_by_site.items())),
    }


def _cases() -> list[tuple[str, bool]]:
    return [(app, latency) for app in APPS for latency in (False, True)]


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(_case_id(*case) for case in _cases())


@pytest.mark.parametrize(
    "app,latency", _cases(), ids=[_case_id(*case) for case in _cases()]
)
def test_profile_matches_golden(golden, app, latency):
    assert profile_fingerprint(app, latency) == golden[_case_id(app, latency)]


if __name__ == "__main__":
    FIXTURE.write_text(
        json.dumps(
            {_case_id(*case): profile_fingerprint(*case) for case in _cases()},
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"wrote {FIXTURE}")
