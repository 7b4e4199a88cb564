"""Tests for network topology, zoning, firewalling and the SCADA master."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.scada.components import Component, ComponentKind, Host, HostRole
from repro.scada.monitoring import Alarm, SCADAMaster, SpoofDetector
from repro.scada.network import SCADANetwork, Zone
from repro.scada.topologies import scope_cooling_topology


class TestComponents:
    def test_install_and_lookup(self):
        host = Host("h", HostRole.HMI_STATION)
        host.install(ComponentKind.OPERATING_SYSTEM, "win_legacy")
        assert host.variant_of(ComponentKind.OPERATING_SYSTEM) == "win_legacy"

    def test_variant_of_missing_slot_is_none(self):
        host = Host("h", HostRole.HMI_STATION)
        assert host.variant_of(ComponentKind.ANTIVIRUS) is None

    def test_missing_slots_by_role(self):
        host = Host("h", HostRole.PLC)
        missing = set(host.missing_slots())
        assert ComponentKind.PLC_FIRMWARE in missing
        host.install(ComponentKind.PLC_FIRMWARE, "firmware_common")
        assert ComponentKind.PLC_FIRMWARE not in set(host.missing_slots())

    def test_is_computer_and_field_device(self):
        assert Host("h", HostRole.HMI_STATION).is_computer
        assert not Host("s", HostRole.SENSOR).is_computer
        assert Host("s", HostRole.SENSOR).is_field_device

    def test_empty_variant_rejected(self):
        with pytest.raises(ValueError):
            Component(ComponentKind.OPERATING_SYSTEM, "")


class TestNetworkTopology:
    @pytest.fixture
    def net(self):
        net = SCADANetwork()
        net.add_host(Host("a", HostRole.CORPORATE_PC), Zone.ENTERPRISE)
        net.add_host(Host("b", HostRole.SCADA_SERVER), Zone.SUPERVISORY)
        net.add_host(Host("c", HostRole.PLC), Zone.CONTROL)
        net.connect("a", "b", ["smb"])
        net.connect("b", "c", ["modbus"])
        return net

    def test_duplicate_host_rejected(self, net):
        with pytest.raises(ValueError):
            net.add_host(Host("a", HostRole.CORPORATE_PC), Zone.ENTERPRISE)

    def test_connect_unknown_host_rejected(self, net):
        with pytest.raises(KeyError):
            net.connect("a", "ghost")

    def test_cross_zone_denied_by_default(self, net):
        assert not net.flow_allowed("a", "b", "smb")

    def test_firewall_rule_opens_flow(self, net):
        net.allow(Zone.ENTERPRISE, Zone.SUPERVISORY, "smb")
        assert net.flow_allowed("a", "b", "smb")

    def test_rule_is_service_specific(self, net):
        net.allow(Zone.ENTERPRISE, Zone.SUPERVISORY, "smb")
        assert not net.flow_allowed("a", "b", "scada")

    def test_wildcard_service_rule(self):
        net = SCADANetwork()
        net.add_host(Host("a", HostRole.CORPORATE_PC), Zone.ENTERPRISE)
        net.add_host(Host("b", HostRole.SCADA_SERVER), Zone.SUPERVISORY)
        net.connect("a", "b", ["*"])  # link carries every service
        net.allow(Zone.ENTERPRISE, Zone.SUPERVISORY, "*")
        assert net.flow_allowed("a", "b", "anything")

    def test_rule_is_directional(self, net):
        net.allow(Zone.ENTERPRISE, Zone.SUPERVISORY, "smb")
        assert not net.flow_allowed("b", "a", "smb")

    def test_link_must_carry_service(self, net):
        net.allow(Zone.SUPERVISORY, Zone.CONTROL, "scada")
        assert not net.flow_allowed("b", "c", "scada")  # link is modbus-only

    def test_same_zone_needs_no_rule(self):
        net = SCADANetwork()
        net.add_host(Host("x", HostRole.HMI_STATION), Zone.SUPERVISORY)
        net.add_host(Host("y", HostRole.HMI_STATION), Zone.SUPERVISORY)
        net.connect("x", "y", ["smb"])
        assert net.flow_allowed("x", "y", "smb")

    def test_reachable_targets(self, net):
        net.allow(Zone.ENTERPRISE, Zone.SUPERVISORY, "smb")
        assert net.reachable_targets("a", "smb") == ["b"]

    def test_attack_surface_excludes_compromised(self, net):
        net.allow(Zone.ENTERPRISE, Zone.SUPERVISORY, "smb")
        surface = net.attack_surface({"a"}, "smb")
        assert surface == [("a", "b")]
        assert net.attack_surface({"a", "b"}, "smb") == []

    def test_attack_surface_of_nothing_is_empty(self, net):
        net.allow(Zone.ENTERPRISE, Zone.SUPERVISORY, "smb")
        assert net.attack_surface([], "smb") == []

    def test_attack_surface_lists_a_repeated_source_once(self, net):
        net.allow(Zone.ENTERPRISE, Zone.SUPERVISORY, "smb")
        assert net.attack_surface(["a", "a"], "smb") == [("a", "b")]

    def test_attack_surface_excludes_a_target_listed_after_its_source(
        self, net
    ):
        net.allow(Zone.ENTERPRISE, Zone.SUPERVISORY, "smb")
        net.allow(Zone.SUPERVISORY, Zone.CONTROL, "modbus")
        assert net.attack_surface(["a", "b"], "smb") == []
        assert net.attack_surface(["b", "a"], "modbus") == [("b", "c")]

    def test_attack_surface_follows_input_order_of_sources(self):
        net = SCADANetwork()
        for name in ("x", "y", "z"):
            net.add_host(Host(name, HostRole.HMI_STATION), Zone.SUPERVISORY)
        net.connect("x", "z", ["smb"])
        net.connect("y", "z", ["smb"])
        assert net.attack_surface(["y", "x"], "smb") == [
            ("y", "z"),
            ("x", "z"),
        ]
        assert net.attack_surface(["x", "y"], "smb") == [
            ("x", "z"),
            ("y", "z"),
        ]

    def test_attack_surface_order_is_input_order_under_any_hash_seed(self):
        probe = (
            "import json\n"
            "from repro.scada.topologies import scope_cooling_topology\n"
            "print(json.dumps(scope_cooling_topology().attack_surface(\n"
            "    ['office_0', 'eng_ws', 'hmi_0', 'eng_ws'], 'smb')))\n"
        )
        src = str(Path(repro.__file__).resolve().parent.parent)
        surfaces = []
        for hash_seed in ("1", "2", "3"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (src, env.get("PYTHONPATH")) if p
            )
            result = subprocess.run(
                [sys.executable, "-c", probe],
                capture_output=True,
                text=True,
                timeout=300,
                env=env,
            )
            assert result.returncode == 0, result.stderr
            surfaces.append(json.loads(result.stdout))
        assert surfaces[0] == surfaces[1] == surfaces[2]
        sources = list(dict.fromkeys(source for source, _ in surfaces[0]))
        assert sources == ["office_0", "eng_ws", "hmi_0"]

    def test_hosts_in_zone_and_role(self, net):
        assert [h.name for h in net.hosts_in_zone(Zone.CONTROL)] == ["c"]
        assert [h.name for h in net.hosts_with_role(HostRole.PLC)] == ["c"]

    def test_shortest_zone_path(self, net):
        assert net.shortest_zone_path("a", "c") == ["a", "b", "c"]

    def test_shortest_zone_path_to_self(self, net):
        assert net.shortest_zone_path("b", "b") == ["b"]

    def test_shortest_zone_path_none_without_path(self, net):
        net.add_host(Host("d", HostRole.PLC), Zone.CONTROL)
        assert net.shortest_zone_path("a", "d") is None

    def test_shortest_zone_path_takes_fewest_hops(self, net):
        net.add_host(Host("d", HostRole.HMI_STATION), Zone.SUPERVISORY)
        net.connect("a", "d")
        net.connect("d", "b")
        net.connect("a", "c")
        assert net.shortest_zone_path("a", "c") == ["a", "c"]
        assert net.shortest_zone_path("d", "c") in (
            ["d", "a", "c"], ["d", "b", "c"]
        )

    def test_neighbors_follow_link_insertion_order(self):
        net = SCADANetwork()
        for name in "hxyz":
            net.add_host(Host(name, HostRole.HMI_STATION), Zone.SUPERVISORY)
        net.connect("h", "z")
        net.connect("y", "h")
        net.connect("h", "x")
        net.connect("z", "y")
        assert net.neighbors("h") == ["z", "y", "x"]
        assert net.neighbors("y") == ["h", "z"]
        assert net.neighbors("z") == ["h", "y"]
        assert net.neighbors("x") == ["h"]

    def test_reconnect_keeps_position_and_replaces_labels(self):
        net = SCADANetwork()
        for name in "hxy":
            net.add_host(Host(name, HostRole.HMI_STATION), Zone.SUPERVISORY)
        net.connect("h", "x", ["smb"])
        net.connect("h", "y", ["smb"])
        net.connect("x", "h", ["modbus"])
        assert net.neighbors("h") == ["x", "y"]
        assert net.link_services("h", "x") == {"modbus"}
        assert net.link_services("x", "h") == {"modbus"}
        assert net.flow_allowed("h", "x", "modbus")
        assert not net.flow_allowed("h", "x", "smb")

    def test_link_services_returns_a_copy(self, net):
        net.link_services("a", "b").add("modbus")
        net.link_services("b", "a").clear()
        assert net.link_services("a", "b") == {"smb"}
        net.allow(Zone.ENTERPRISE, Zone.SUPERVISORY, "*")
        assert net.flow_allowed("a", "b", "smb")
        assert not net.flow_allowed("a", "b", "modbus")

    @pytest.mark.parametrize(
        "query",
        [
            lambda net: net.neighbors("zz"),
            lambda net: net.reachable_targets("zz", "smb"),
            lambda net: net.shortest_zone_path("zz", "a"),
            lambda net: net.shortest_zone_path("a", "zz"),
            lambda net: net.shortest_zone_path("zz", "zz"),
        ],
        ids=["neighbors", "reachable_targets", "path_source", "path_target",
             "path_self"],
    )
    def test_unknown_host_raises_key_error_naming_it(self, net, query):
        with pytest.raises(KeyError, match="zz"):
            query(net)

    def test_unknown_host_has_no_links_or_flows(self, net):
        assert net.link_services("zz", "a") == set()
        assert net.link_services("a", "zz") == set()
        assert net.flow_allowed("zz", "a", "smb") is False
        assert net.flow_allowed("a", "zz", "smb") is False

    def test_validate_flags_isolated_hosts(self):
        net = SCADANetwork()
        net.add_host(Host("lonely", HostRole.CORPORATE_PC), Zone.ENTERPRISE)
        warnings = net.validate()
        assert any("no links" in w for w in warnings)


class TestReferenceTopology:
    def test_no_validation_warnings(self):
        assert scope_cooling_topology().validate() == []

    def test_expected_population(self):
        net = scope_cooling_topology()
        assert len(net.hosts_with_role(HostRole.PLC)) == 2
        assert len(net.hosts_with_role(HostRole.SENSOR)) == 2
        assert len(net.hosts_in_zone(Zone.ENTERPRISE)) == 3

    def test_engineering_station_reaches_plc(self):
        net = scope_cooling_topology()
        assert net.flow_allowed("eng_ws", "plc_0", "modbus")

    def test_office_cannot_reach_plc_directly(self):
        net = scope_cooling_topology()
        assert not net.flow_allowed("office_0", "plc_0", "modbus")

    def test_custom_variant_installation(self):
        net = scope_cooling_topology(default_os="linux_hardened")
        os_variant = net.host("office_0").variant_of(
            ComponentKind.OPERATING_SYSTEM
        )
        assert os_variant == "linux_hardened"

    def test_scalable_sizes(self):
        net = scope_cooling_topology(n_office_pcs=5, n_plcs=3, n_hmi=4)
        assert len(net.hosts_in_zone(Zone.ENTERPRISE)) == 5
        assert len(net.hosts_with_role(HostRole.PLC)) == 3


class TestSpoofDetector:
    def test_frozen_signal_detected(self):
        detector = SpoofDetector(window=5)
        findings = [detector.observe(100.0) for _ in range(5)]
        assert findings[-1] == "frozen_signal"

    def test_varying_signal_not_flagged(self, rng):
        detector = SpoofDetector(window=5, max_rate=100.0)
        findings = [
            detector.observe(100.0 + float(rng.normal(0, 2))) for _ in range(20)
        ]
        assert all(f != "frozen_signal" for f in findings)

    def test_impossible_jump_detected(self):
        detector = SpoofDetector(window=5, max_rate=10.0)
        detector.observe(100.0)
        assert detector.observe(200.0) == "impossible_rate"

    def test_reset_clears_window(self):
        detector = SpoofDetector(window=3)
        detector.observe(1.0)
        detector.observe(1.0)
        detector.reset()
        assert detector.observe(1.0) is None

    def test_window_validation(self):
        with pytest.raises(ValueError):
            SpoofDetector(window=2)


class TestSCADAMaster:
    def test_alarm_trips_on_high_value(self):
        master = SCADAMaster(
            alarms=[Alarm("hot", register=100, high=35.0, scale=0.1)]
        )
        findings = master.poll(1.0, {100: 400})
        assert findings == ["alarm:hot"]
        assert master.detected
        assert master.first_detection_time == 1.0

    def test_alarm_quiet_in_range(self):
        master = SCADAMaster(
            alarms=[Alarm("hot", register=100, high=35.0, scale=0.1)]
        )
        assert master.poll(1.0, {100: 250}) == []
        assert not master.detected

    def test_low_alarm(self):
        master = SCADAMaster(alarms=[Alarm("lo", register=5, low=10.0)])
        assert master.poll(0.0, {5: 3}) == ["alarm:lo"]

    def test_spoof_watch_detects_frozen_register(self):
        master = SCADAMaster(spoof_window=4)
        master.watch(100)
        for t in range(4):
            master.poll(float(t), {100: 250})
        assert master.detected
        assert any("frozen" in label for _, label in master.findings)

    def test_first_detection_time_is_earliest(self):
        master = SCADAMaster(
            alarms=[Alarm("hot", register=1, high=10.0)]
        )
        master.poll(5.0, {1: 50})
        master.poll(6.0, {1: 50})
        assert master.first_detection_time == 5.0

    def test_poll_log_accumulates(self):
        master = SCADAMaster(alarms=[Alarm("a", register=1, high=10.0)])
        master.poll(0.0, {1: 1})
        master.poll(1.0, {1: 2})
        assert len(master.poll_log) == 2
