"""Pinned cache keys and journal identities of suite runs.

A scenario's cache entry is addressed by ``ScenarioSuite._cache_key``
and a run journal resumes only the run whose content identity it
records.  Both are SHA-256 digests of canonical JSON, so any change to
what they cover — or to how an execution knob enters them — moves the
hex below, and every existing cache entry then misses and every
existing journal restarts.  The values were computed before the
per-run knobs were gathered into ``repro.exec.RunOptions``; the test
drives public calls only, so it runs unchanged on either side of that
change.

The cache key also covers ``repro.__version__`` (an upgrade
invalidates the cache on purpose), so the version is pinned here to
keep the pin about the key's layout rather than the release number.
"""

import json

import pytest

import repro
from repro.exec.seeding import as_seed_sequence, spawn_sequences
from repro.scenarios import get_scenario
from repro.scenarios.suite import ScenarioSuite

SEED = 2013
VERSION = "2.8.2"

#: ``{batch_size: (cache key, run identity)}`` of ``smoke`` at SEED.
PINNED = {
    None: (
        "fee66d863e35a7c2874dca1de6300af5e8c58fe24001844d1451e34c436b7bbb",
        "84a18a42d54ce5b481f6786b7b07790bba276c13cbcb8745b2d38ddd1843d11c",
    ),
    8: (
        "1a91132ceaee51000aa40467db4b25f3820bcf8851462348961e55b36dd10091",
        "ddfb87d521b525595990dad7d817f0705caa3964c2ff5f5f513fb429c6b91391",
    ),
}


@pytest.fixture
def pinned_version(monkeypatch):
    monkeypatch.setattr(repro, "__version__", VERSION)


@pytest.mark.parametrize("batch_size", sorted(PINNED, key=str))
def test_suite_cache_key_and_journal_identity(
    tmp_path, pinned_version, batch_size
):
    journal = tmp_path / "run.journal"
    ScenarioSuite(["smoke"], cache_dir=str(tmp_path / "cache")).run(
        seed=SEED, batch_size=batch_size, journal=journal
    )
    state = json.loads(journal.read_text())
    cache_key, identity = PINNED[batch_size]
    assert state["identity"] == identity
    assert state["completed"] == {"0": cache_key}
    assert (tmp_path / "cache" / f"{cache_key}.json").is_file()


def test_two_argument_cache_key_is_the_scalar_key(pinned_version):
    (seq,) = spawn_sequences(as_seed_sequence(SEED), 1)
    spec = get_scenario("smoke")
    assert ScenarioSuite._cache_key(spec, seq) == PINNED[None][0]
    assert ScenarioSuite._cache_key(spec.to_dict(), seq) == PINNED[None][0]
