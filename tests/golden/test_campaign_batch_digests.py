"""Pinned digests of vectorized attack-campaign output.

:class:`CampaignBatchEngine` is deterministic per generator, so the
exact rows of :meth:`~CampaignBatchEngine.run_rows` and the exact
fields of :meth:`~CampaignBatchEngine.run_outcomes` can be pinned.  Any
change to the engine that moves one draw or one record field moves a
digest; a pure speed change must leave all of them alone.

Cases: the three vectorizable built-ins (``cooling_duqu`` and
``smart_grid_duqu`` exfiltrate, ``cooling_flame`` recon), each at a
ragged size, 256 lanes and 1024 lanes; a sweep over seeds
0-5 and sizes (2, 7, 64, 256, 1024) folded into one digest; and a
streamed, spilled ``Session.campaign`` table.
"""

import hashlib

import numpy as np
import pytest

from repro.api import Session
from repro.attacks.batched import CampaignBatchEngine
from repro.scenarios import get_scenario

SCENARIOS = ("cooling_duqu", "cooling_flame", "smart_grid_duqu")
SEED = 0


@pytest.fixture(scope="module")
def engines():
    built = {
        name: CampaignBatchEngine(Session._campaign_for(get_scenario(name)))
        for name in SCENARIOS
    }
    for name, engine in built.items():
        assert engine.vectorized, (name, engine.fallback_reason)
    return built


def batch_digest(engine: CampaignBatchEngine, size: int, seed: int) -> str:
    """SHA-256 over ``run_rows`` bytes, then every outcome's fields."""
    digest = hashlib.sha256(
        engine.run_rows(size, np.random.default_rng(seed)).tobytes()
    )
    for outcome in engine.run_outcomes(
        size, np.random.default_rng(seed + 100)
    ):
        digest.update(
            repr(
                (
                    outcome.success,
                    outcome.success_time,
                    outcome.detection_time,
                    sorted(outcome.compromise_times.items()),
                    sorted(outcome.root_times.items()),
                    outcome.evicted,
                )
            ).encode()
        )
    return digest.hexdigest()


def table_digest(table) -> str:
    """SHA-256 over a (possibly sharded) record table, column-major per
    chunk."""
    digest = hashlib.sha256(str(len(table)).encode())
    for chunk in table.iter_chunks():
        for name in table.columns:
            column = chunk.column(name)
            digest.update(f"|{name}:{column.dtype.str}:".encode())
            if column.dtype.kind == "O":
                digest.update(repr(column.tolist()).encode())
            else:
                digest.update(column.tobytes())
    return digest.hexdigest()


GOLDEN = {
    ("cooling_duqu", 7): (
        "4bdd5ed55b6c562fbba47c5e5298e37b"
        "ce6923057bc20fb8f6211075573b0c0c"
    ),
    ("cooling_duqu", 256): (
        "a62b4a10454cd2515bc5e87daa1eadde"
        "f51a1c689ab7dae44fa339627f580354"
    ),
    ("cooling_duqu", 1024): (
        "64bf3a70eef65f5747c35296b2ecb003"
        "4172b39b7aa7cfaa607c5878b1d54488"
    ),
    ("cooling_flame", 7): (
        "362b8118e199508b532c2a96818ab3e7"
        "4cdbaecd46de4932d775f1bd52dea9e6"
    ),
    ("cooling_flame", 256): (
        "e3f5e7a61dc4291b11af3e2f9bcd2df7"
        "2e87f824add8109f2c249d0f6f2a2eb6"
    ),
    ("cooling_flame", 1024): (
        "63c09db1c3b326c0f2f08613dd88eabc"
        "b795119055a985a5a101188e108be50b"
    ),
    ("smart_grid_duqu", 7): (
        "3a9574acdb965f1e8e5fadd02cbd7f0e"
        "41280fc70c019e60793ec0d6d9f6a3a8"
    ),
    ("smart_grid_duqu", 256): (
        "11321e1b84cfee64dea79ccd80e6abee"
        "f6a40ffe46048c87bc978e62f098ec62"
    ),
    ("smart_grid_duqu", 1024): (
        "2f704e136283495fac49889dd2270d7a"
        "75e337928d7c01d244becf1a097d99d6"
    ),
}

#: SHA-256 of the concatenated 12-hex prefixes of ``batch_digest`` over
#: scenarios x seeds 0-5 x sizes (2, 7, 64, 256, 1024), in that order.
SWEEP_GOLDEN = (
    "3fb0d5e02e50fe97a568e72d95559f25"
    "d03762910c84221a374be8971aec879e"
)

STREAM_REPLICATIONS = 10_000
STREAM_GOLDEN = (
    "218de44ddfc1db1dab3acb6346269322"
    "f7a3c62c4d132f7db75923a5556c18d4"
)


@pytest.mark.parametrize("name,size", list(GOLDEN), ids=lambda v: str(v))
def test_batch_digest(engines, name, size):
    assert batch_digest(engines[name], size, SEED) == GOLDEN[(name, size)]


def test_seed_size_sweep_digest(engines):
    prefixes = "".join(
        batch_digest(engines[name], size, seed)[:12]
        for name in SCENARIOS
        for seed in range(6)
        for size in (2, 7, 64, 256, 1024)
    )
    assert hashlib.sha256(prefixes.encode()).hexdigest() == SWEEP_GOLDEN


def test_streamed_campaign_table_digest():
    result = Session().campaign(
        "cooling_duqu",
        STREAM_REPLICATIONS,
        seed=SEED,
        batch_size=256,
        max_records_in_ram=3000,
    )
    table = result.table
    assert len(table) == STREAM_REPLICATIONS
    assert len(table.shards) > 1
    assert table_digest(table) == STREAM_GOLDEN
