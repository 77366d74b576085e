"""Deployment prediction from model + inventory + counters (§6.2)."""

import numpy as np
import pytest

from repro import units
from repro.core.model import InterfaceClassKey
from repro.core.prediction import (
    DeployedInterface,
    predict_instant,
    predict_trace,
    transceiver_power_w,
)


def make_interface(name="Eth0/0", trx="QSFP28-100G-DAC", n=10,
                   octet_rate=1e6, packet_rate=1e3):
    ones = np.ones(n)
    return DeployedInterface(
        name=name, trx_name=trx,
        octet_rate_rx=octet_rate * ones, octet_rate_tx=octet_rate * ones,
        packet_rate_rx=packet_rate * ones, packet_rate_tx=packet_rate * ones)


class TestDeployedInterface:
    def test_class_key_from_inventory(self):
        iface = make_interface()
        assert iface.class_key == InterfaceClassKey("QSFP28", "Passive DAC",
                                                    100)

    def test_no_module_no_key(self):
        iface = make_interface(trx=None)
        assert iface.class_key is None

    def test_unknown_module_no_key(self):
        iface = make_interface(trx="MYSTERY-800G")
        assert iface.class_key is None

    def test_physical_bit_rate_adds_layer1_overhead(self):
        iface = make_interface(octet_rate=1000, packet_rate=10)
        # 2000 B/s + 20 pps both directions -> 8 * (2000 + 20*20) bits.
        expected = 8 * (2000 + units.ETHERNET_OVERHEAD_BYTES * 20)
        assert iface.physical_bit_rate()[0] == pytest.approx(expected)

    def test_mismatched_arrays_rejected(self):
        with pytest.raises(ValueError, match="differing lengths"):
            DeployedInterface(
                name="x", trx_name=None,
                octet_rate_rx=np.ones(3), octet_rate_tx=np.ones(3),
                packet_rate_rx=np.ones(2), packet_rate_tx=np.ones(3))


class TestPredictTrace:
    def test_base_only_when_no_interfaces(self, ncs_model):
        trace = predict_trace(ncs_model, [make_interface(trx=None)])
        np.testing.assert_allclose(trace, ncs_model.p_base_w.value)

    def test_active_interface_adds_full_stack(self, ncs_model):
        trace = predict_trace(ncs_model, [make_interface()])
        iface_model = ncs_model.interface_model(
            InterfaceClassKey("QSFP28", "Passive DAC", 100))
        assert trace[0] > ncs_model.p_base_w.value + 0.8 * (
            iface_model.p_port_w.value + iface_model.p_trx_in_w.value)

    def test_idle_interface_assumed_unplugged_by_default(self, ncs_model):
        # The paper's §6.2 behaviour that caused the Oct-22 mismatch.
        idle = make_interface(octet_rate=0.0, packet_rate=0.0)
        trace = predict_trace(ncs_model, [idle])
        np.testing.assert_allclose(trace, ncs_model.p_base_w.value)

    def test_idle_interface_keeps_trx_in_when_told(self, ncs_model):
        idle = make_interface(octet_rate=0.0, packet_rate=0.0)
        trace = predict_trace(ncs_model, [idle],
                              assume_unplugged_when_idle=False)
        iface_model = ncs_model.interface_model(
            InterfaceClassKey("QSFP28", "Passive DAC", 100))
        np.testing.assert_allclose(
            trace, ncs_model.p_base_w.value + iface_model.p_trx_in_w.value)

    def test_per_sample_activity(self, ncs_model):
        # Traffic in the second half only: the prediction steps up.
        n = 10
        rates = np.concatenate([np.zeros(5), np.full(5, 1e6)])
        iface = DeployedInterface(
            name="Eth0/0", trx_name="QSFP28-100G-DAC",
            octet_rate_rx=rates, octet_rate_tx=rates,
            packet_rate_rx=rates / 1000, packet_rate_tx=rates / 1000)
        trace = predict_trace(ncs_model, [iface])
        assert np.all(trace[:5] == pytest.approx(ncs_model.p_base_w.value))
        assert np.all(trace[5:] > trace[0])

    def test_empty_input_returns_base_power_series(self, ncs_model):
        # A router with no inventory still draws P_base; the old
        # zero-length return silently dropped it from fleet sums.
        trace = predict_trace(ncs_model, [], n_samples=4)
        assert trace.shape == (4,)
        np.testing.assert_array_equal(
            trace, np.full(4, ncs_model.p_base_w.value))

    def test_empty_input_without_length_is_an_error(self, ncs_model):
        with pytest.raises(ValueError, match="n_samples"):
            predict_trace(ncs_model, [])

    def test_n_samples_must_match_interfaces(self, ncs_model):
        with pytest.raises(ValueError, match="n_samples"):
            predict_trace(ncs_model, [make_interface(n=5)], n_samples=7)

    def test_mismatched_lengths_rejected(self, ncs_model):
        with pytest.raises(ValueError, match="samples"):
            predict_trace(ncs_model, [make_interface(n=5),
                                      make_interface(name="Eth0/1", n=7)])

    def test_exact_threshold_is_idle(self, ncs_model):
        # Regression for the idle/active boundary: exactly at the
        # shared threshold the interface is idle (strict >), one ulp
        # above it is active -- and every layer must agree.
        from repro.activity import ACTIVE_PPS_THRESHOLD, prediction_active
        half = ACTIVE_PPS_THRESHOLD / 2.0  # both directions sum to it
        at = make_interface(n=1, octet_rate=0.0, packet_rate=half)
        above = make_interface(
            n=1, octet_rate=0.0,
            packet_rate=np.nextafter(half, np.inf))
        trace_at = predict_trace(ncs_model, [at])
        trace_above = predict_trace(ncs_model, [above])
        assert trace_at[0] == ncs_model.p_base_w.value
        assert trace_above[0] > ncs_model.p_base_w.value
        assert not prediction_active(at.packet_rate()[0])
        assert prediction_active(above.packet_rate()[0])

    def test_predict_instant(self, ncs_model):
        value = predict_instant(ncs_model, [make_interface()], index=3)
        trace = predict_trace(ncs_model, [make_interface()])
        assert value == pytest.approx(trace[3])

    def test_single_sample_is_bit_equal_to_the_full_trace(self, ncs_model):
        # Twelve same-class members: enough rows that a pairwise column
        # sum would reorder the additions for a one-sample call.
        rng = np.random.default_rng(5)
        for _ in range(40):
            ifaces = [
                DeployedInterface(
                    name=f"Eth0/{i}", trx_name="QSFP28-100G-DAC",
                    octet_rate_rx=rng.uniform(0, 1e9, 4),
                    octet_rate_tx=rng.uniform(0, 1e9, 4),
                    packet_rate_rx=rng.uniform(0, 1e6, 4),
                    packet_rate_tx=rng.uniform(0, 1e6, 4))
                for i in range(12)]
            trace = predict_trace(ncs_model, ifaces)
            for index in range(4):
                assert predict_instant(ncs_model, ifaces, index) == \
                    trace[index]

    def test_predict_instant_empty_inventory(self, ncs_model):
        value = predict_instant(ncs_model, [], index=2, n_samples=4)
        assert value == ncs_model.p_base_w.value
        with pytest.raises(IndexError):
            predict_instant(ncs_model, [], index=4, n_samples=4)
        with pytest.raises(ValueError, match="n_samples"):
            predict_instant(ncs_model, [], index=0)


class TestTransceiverPower:
    def test_sums_inventory_regardless_of_traffic(self, ncs_model):
        active = make_interface()
        idle = make_interface(name="Eth0/1", octet_rate=0, packet_rate=0)
        total = transceiver_power_w(ncs_model, [active, idle])
        one = transceiver_power_w(ncs_model, [active])
        assert total == pytest.approx(2 * one)

    def test_skips_empty_ports(self, ncs_model):
        assert transceiver_power_w(ncs_model,
                                   [make_interface(trx=None)]) == 0.0
