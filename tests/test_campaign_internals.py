"""Unit tests for the campaign simulator's probability plumbing."""

import numpy as np
import pytest

from repro.attacks.campaign import AttackCampaign, CampaignConfig
from repro.attacks.profiles import stuxnet_like
from repro.scada.components import ComponentKind, Host, HostRole
from repro.scada.network import SCADANetwork, Zone
from repro.scada.topologies import scope_cooling_topology
from repro.scenarios import SCENARIOS

K = ComponentKind


@pytest.fixture
def campaign(catalog):
    return AttackCampaign(
        scope_cooling_topology(), catalog, stuxnet_like(),
        CampaignConfig(horizon=50.0),
    )


class TestEntryCandidates:
    def test_enterprise_and_usb_hosts_are_candidates(self, campaign):
        candidates = set(campaign._entry_candidates())
        assert "office_0" in candidates       # enterprise zone
        assert "eng_ws" in candidates         # USB ports in supervisory
        assert "hmi_0" in candidates          # USB ports

    def test_plcs_and_field_devices_excluded(self, campaign):
        candidates = set(campaign._entry_candidates())
        assert "plc_0" not in candidates
        assert "temp_sensor_0" not in candidates

    def test_historian_without_usb_not_a_candidate(self, campaign):
        # DMZ zone, no usb_ports -> not an entry point.
        assert "historian" not in set(campaign._entry_candidates())


class TestProbabilities:
    def test_entry_probability_includes_av(self, campaign):
        # office_0: win_legacy usb 0.9 × av_signature evasion 0.8.
        assert campaign._entry_probability("office_0") == pytest.approx(0.72)

    def test_entry_probability_without_av(self, campaign):
        # hmi_0 has no antivirus slot filled.
        assert campaign._entry_probability("hmi_0") == pytest.approx(0.9)

    def test_escalation_probability(self, campaign):
        assert campaign._escalation_probability("hmi_0") == pytest.approx(
            0.85
        )

    def test_reprogram_probability_combines_firmware_and_stack(
        self, campaign
    ):
        # firmware_common 0.85 × modbus_standard 0.9.
        assert campaign._reprogram_probability("plc_0") == pytest.approx(
            0.765
        )

    def test_resilient_flag_scales_probabilities(self, campaign):
        plain = campaign._entry_probability("office_0")
        campaign.network.host("office_0").resilient = True
        hardened = campaign._entry_probability("office_0")
        assert hardened == pytest.approx(plain * 0.05)

    def test_spoof_probability_from_sensor_variants(self, campaign, catalog):
        assert campaign._spoof_probability() == pytest.approx(0.7)
        for host in campaign.network.hosts_with_role(HostRole.SENSOR):
            host.install(K.SENSOR_MODEL, "sensor_authenticated")
        assert campaign._spoof_probability() == pytest.approx(0.1)

    def test_spoof_probability_without_sensors(self, catalog):
        net = SCADANetwork()
        net.add_host(Host("pc", HostRole.CORPORATE_PC), Zone.ENTERPRISE)
        campaign = AttackCampaign(
            net, catalog, stuxnet_like(), CampaignConfig(horizon=10.0)
        )
        assert campaign._spoof_probability() == 1.0

    def test_detection_noise_raised_by_behavioral_av(self, campaign):
        base = campaign._detection_noise("hmi_0")  # no AV
        campaign.network.host("hmi_0").install(K.ANTIVIRUS, "av_behavioral")
        improved = campaign._detection_noise("hmi_0")
        assert improved > base


class TestDegenerateSystems:
    def test_system_without_entry_points_never_compromised(self, catalog):
        net = SCADANetwork()
        plc = Host("plc", HostRole.PLC)
        plc.install(K.PLC_FIRMWARE, "firmware_common")
        plc.install(K.PROTOCOL_STACK, "modbus_standard")
        net.add_host(plc, Zone.CONTROL)
        sensor = Host("s", HostRole.SENSOR)
        sensor.install(K.SENSOR_MODEL, "sensor_basic")
        net.add_host(sensor, Zone.FIELD)
        net.connect("plc", "s", ["fieldbus"])
        outcomes = AttackCampaign(
            net, catalog, stuxnet_like(),
            CampaignConfig(horizon=50.0, tick_interval=1.0),
        ).run_batch(5, np.random.default_rng(1))
        assert all(not o.success for o in outcomes)
        assert all(not o.compromise_times for o in outcomes)

    def test_immune_entry_host(self, catalog):
        net = SCADANetwork()
        pc = Host("pc", HostRole.CORPORATE_PC, usb_ports=True)
        pc.install(K.OPERATING_SYSTEM, "rtos_minimal")  # usb 0.02
        pc.install(K.ANTIVIRUS, "av_behavioral")        # evasion 0.35
        net.add_host(pc, Zone.ENTERPRISE)
        campaign = AttackCampaign(
            net, catalog, stuxnet_like(), CampaignConfig(horizon=20.0)
        )
        assert campaign._entry_probability("pc") == pytest.approx(
            0.02 * 0.35
        )

    def test_impair_goal_without_plc_never_succeeds(self, catalog):
        net = SCADANetwork()
        pc = Host("pc", HostRole.CORPORATE_PC, usb_ports=True)
        pc.install(K.OPERATING_SYSTEM, "win_legacy")
        net.add_host(pc, Zone.ENTERPRISE)
        outcomes = AttackCampaign(
            net, catalog, stuxnet_like(),
            CampaignConfig(horizon=80.0, tick_interval=1.0),
        ).run_batch(8, np.random.default_rng(2))
        assert all(not o.success for o in outcomes)
        # The entry host still gets compromised.
        assert any(o.compromise_times for o in outcomes)


class TestCompiledTables:
    def test_tables_match_inline_helpers(self, campaign):
        tables = campaign._compile_tables()
        assert campaign._compile_tables() is tables  # memoized
        for host, p in tables.entry:
            assert p == campaign._entry_probability(host)
        for host, p in tables.escalation.items():
            assert p == campaign._escalation_probability(host)
        for host, plans in tables.propagation.items():
            assert plans == campaign._propagation_plans(host)
        assert tables.spoof == campaign._spoof_probability()

    def test_invalidate_tables_recompiles(self, campaign):
        first = campaign._compile_tables()
        campaign.invalidate_tables()
        second = campaign._compile_tables()
        assert second is not first
        assert second.entry == first.entry

    def test_mutation_honoured_after_invalidation(self, campaign):
        rng = np.random.default_rng(0)
        campaign.run(rng)  # compiles the tables
        entry_host = campaign._compile_tables().entry[0][0]
        before = dict(campaign._compile_tables().entry)[entry_host]
        campaign.network.host(entry_host).resilient = True
        campaign.invalidate_tables()
        after = dict(campaign._compile_tables().entry)[entry_host]
        assert after == pytest.approx(before * 0.05)


@pytest.mark.parametrize("name", SCENARIOS.names())
def test_detection_noise_table_covers_every_attempt_target(name):
    """Both engines index ``detection_noise`` directly, with no fallback:
    every host a failed attempt can hit must have its entry."""
    scenario = SCENARIOS.get(name)
    campaign = AttackCampaign(
        scenario.build_network(),
        scenario.build_catalog(),
        scenario.build_threat(),
        scenario.build_campaign_config(),
    )
    tables = campaign._compile_tables()
    noise = tables.detection_noise
    assert list(noise) == list(campaign.network.host_names)
    for host, p in noise.items():
        assert p == campaign._detection_noise(host)
        assert 0.0 <= p <= 1.0
    targets = {host for host, _ in tables.entry}
    targets.update(tables.escalation)
    for plans in tables.propagation.values():
        targets.update(target for _, target, _, _ in plans)
    assert targets <= set(noise)
