"""Pinned digests of vectorized attack-campaign output.

:class:`CampaignBatchEngine` is deterministic per generator, so the
exact rows of :meth:`~CampaignBatchEngine.run_rows` and the exact
fields of :meth:`~CampaignBatchEngine.run_outcomes` can be pinned.  Any
change to the engine that moves one draw or one record field moves a
digest; a pure speed change must leave all of them alone.

Cases: the three vectorizable built-ins (``cooling_duqu`` and
``smart_grid_duqu`` exfiltrate, ``cooling_flame`` recon), each at a
ragged size, 256 lanes and 1024 lanes; a sweep over seeds
0-5 and sizes (2, 7, 64, 256, 1024) folded into one digest; four
``cooling_duqu`` variants that reach the engine's other branches
(incident response with immediate and delayed eviction, no propagation
vectors, no C2); and a streamed, spilled ``Session.campaign`` table,
serial and on two ``process`` workers.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.api import Session
from repro.attacks.batched import CampaignBatchEngine
from repro.attacks.campaign import AttackCampaign
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

#: ``cooling_duqu`` with one input changed, so each resolve branch the
#: built-ins leave unused is pinned: eviction at detection, eviction
#: after an exponential delay, an edge-free graph (entry hosts only)
#: and no beacon detection.
VARIANTS = {
    "response_immediate": lambda threat, config: (
        threat, dataclasses.replace(config, response_enabled=True)
    ),
    "response_delayed": lambda threat, config: (
        threat,
        dataclasses.replace(
            config, response_enabled=True, response_delay_rate=0.5
        ),
    ),
    "no_vectors": lambda threat, config: (
        dataclasses.replace(threat, vectors=()), config
    ),
    "no_c2": lambda threat, config: (
        dataclasses.replace(threat, c2=None), config
    ),
}

VARIANT_GOLDEN = {
    ("response_immediate", 7): (
        "30e4c48a5bd588e7ba409e458477dc51"
        "8e6da10bb69253ee718a801fa18db73a"
    ),
    ("response_immediate", 256): (
        "f05da232b59b184875fdf0f55a75f26e"
        "4ecd982d7b7ce505d5b7c6ce49ac7fe5"
    ),
    ("response_delayed", 7): (
        "957f953083ab9cc3b7012d5f0a1f7d6c"
        "fc1acb3b7be8232e655c1ff6a9e80993"
    ),
    ("response_delayed", 256): (
        "740841228f13e840af76aa9523d81563"
        "05ff2db236d25dba246ae4c1d906eaef"
    ),
    ("no_vectors", 7): (
        "8ac286c3173c979174175fde3560f466"
        "b81c5382b76b1565dcf2cf5b0b3c8e7f"
    ),
    ("no_vectors", 256): (
        "cfe220d932c8830b6e3b59c1d51afb76"
        "fa904f653574a381a126ecb47d4a5866"
    ),
    # Seven lanes draw no beacon that would have been the first
    # detection, so this equals the unmodified built-in's digest.
    ("no_c2", 7): (
        "4bdd5ed55b6c562fbba47c5e5298e37b"
        "ce6923057bc20fb8f6211075573b0c0c"
    ),
    ("no_c2", 256): (
        "a114b6875d06578cb4ab86a6661d6eeb"
        "fd7715abc25c923618f29fdd49e1bd7a"
    ),
}

STREAM_REPLICATIONS = 10_000
STREAM_GOLDEN = (
    "218de44ddfc1db1dab3acb6346269322"
    "f7a3c62c4d132f7db75923a5556c18d4"
)

PROCESS_STREAM_REPLICATIONS = 3_000
PROCESS_STREAM_GOLDEN = (
    "20f1bf34587568818751ec03f74b13fb"
    "072f8390c67108b28c064fd46a26143a"
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


def variant_engine(variant: str) -> CampaignBatchEngine:
    scenario = get_scenario("cooling_duqu")
    threat, config = VARIANTS[variant](
        scenario.build_threat(), scenario.build_campaign_config()
    )
    engine = CampaignBatchEngine(
        AttackCampaign(
            scenario.build_network(), scenario.build_catalog(), threat,
            config,
        )
    )
    assert engine.vectorized, (variant, engine.fallback_reason)
    return engine


@pytest.mark.parametrize(
    "variant,size", list(VARIANT_GOLDEN), ids=lambda v: str(v)
)
def test_variant_batch_digest(variant, size):
    engine = variant_engine(variant)
    assert (
        batch_digest(engine, size, SEED) == VARIANT_GOLDEN[(variant, size)]
    )


def test_variants_reach_their_branches():
    arrays = {name: variant_engine(name)._arrays for name in VARIANTS}
    assert arrays["response_immediate"].response_enabled
    assert arrays["response_immediate"].response_delay_rate is None
    assert arrays["response_delayed"].response_delay_rate == 0.5
    assert arrays["no_vectors"].edge_src.size == 0
    assert arrays["no_c2"].c2_p == 0.0


def test_process_backend_stream_matches_serial():
    """The vectorized engine, with its lowered arrays, pickles to
    ``process`` workers and streams the serial run's records."""
    kwargs = dict(seed=SEED, batch_size=256, max_records_in_ram=1_000)
    serial = Session().campaign(
        "cooling_duqu", PROCESS_STREAM_REPLICATIONS, **kwargs
    )
    with Session(backend="process", n_workers=2) as session:
        pooled = session.campaign(
            "cooling_duqu", PROCESS_STREAM_REPLICATIONS, **kwargs
        )
    assert len(pooled.table.shards) > 1
    assert table_digest(pooled.table) == table_digest(serial.table)
    assert table_digest(pooled.table) == PROCESS_STREAM_GOLDEN
