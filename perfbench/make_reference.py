"""Regenerate ``reference.json``, the benchmark's committed expectations.

Run from the repository root (takes ~15 minutes on one core)::

    PYTHONPATH=src python3 perfbench/make_reference.py

It records, for seeds ``0 .. PINNED_SEEDS - 1``:

* the ``suite12`` records digest (the scalar engine's bit-identity
  contract) and the ``paper_pipeline`` ``full_study`` records digest;
* per-scenario scalar-engine response moments pooled over those suite
  runs, the reference ``suite12_batch64`` is checked against;

plus scalar-engine moments of the ``campaign_stream`` campaign
(``CAMPAIGN_REFERENCE_REPLICATIONS`` scalar replications), the
reference its batched records are checked against, and the expected row
count of every scenario.  Regenerate only when records are meant to
change; batched records are never pinned bit for bit.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import layers
import workloads

PINNED_SEEDS = 256
CAMPAIGN_REFERENCE_REPLICATIONS = 300_000
CAMPAIGN_REFERENCE_CHUNK = 20_000
CAMPAIGN_REFERENCE_SEED = 20_260_000


def main() -> int:
    from repro.api import Session
    from repro.attacks.campaign import AttackCampaign

    session = Session()
    rows = {}
    suite_digests = {}
    paper_digests = {}
    suite_moments = {
        name: {column: layers.Moments() for column in layers.RESPONSE_COLUMNS}
        for name in workloads.SUITE
    }
    for seed in range(PINNED_SEEDS):
        result = session.run(list(workloads.SUITE), seed=seed)
        parts = []
        for item in result.results:
            name = item.scenario.name
            rows[name] = len(item.table)
            parts.append((name, layers.table_digest(item.table)))
            for column in layers.RESPONSE_COLUMNS:
                suite_moments[name][column].add(item.table.column(column))
        suite_digests[str(seed)] = layers.short(layers.combined_digest(parts))
        parts = []
        for name in workloads.PAPER_CASES:
            study = session.full_study(name, seed=seed)
            rows[name] = len(study.table)
            parts.append((name, layers.table_digest(study.table)))
        paper_digests[str(seed)] = layers.short(layers.combined_digest(parts))
        print(f"seed {seed}: {suite_digests[str(seed)]}", file=sys.stderr)

    scenario = session.scenario(workloads.STREAM_SCENARIO)
    campaign = AttackCampaign(
        scenario.build_network(),
        scenario.build_catalog(),
        scenario.build_threat(),
        scenario.build_campaign_config(),
    )
    campaign_moments = {column: layers.Moments() for column in layers.RESPONSE_COLUMNS}
    for offset in range(0, CAMPAIGN_REFERENCE_REPLICATIONS, CAMPAIGN_REFERENCE_CHUNK):
        table = campaign.run_batch_table(
            CAMPAIGN_REFERENCE_CHUNK, rng=CAMPAIGN_REFERENCE_SEED + offset
        )
        for column in layers.RESPONSE_COLUMNS:
            campaign_moments[column].add(table.column(column))
        print(f"campaign reference: {offset + CAMPAIGN_REFERENCE_CHUNK}", file=sys.stderr)

    reference = {
        "pinned_seeds": PINNED_SEEDS,
        "rows": rows,
        "suite12": {
            "digests": suite_digests,
            "scalar_stats": {
                name: {column: m.to_dict() for column, m in by_column.items()}
                for name, by_column in suite_moments.items()
            },
        },
        "paper_pipeline": {"digests": paper_digests},
        "campaign_stream": {
            "scalar_stats": {
                column: m.to_dict() for column, m in campaign_moments.items()
            },
        },
    }
    path = Path(__file__).resolve().parent / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
