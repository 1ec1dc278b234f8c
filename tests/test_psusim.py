"""Supply-protocol tests: bit-exact codec, round-trip identity, clamp and
slew dynamics, and the socket transport."""
import math
import socket
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from hfpa import psusim
from hfpa.psusim import (BadDlc, BadLength, CanFrame, DLC, FRAME_LEN,
                         ID_NACK, ID_READ, ID_REPLY, ID_SET_VOLTAGE,
                         NACK_UNKNOWN_REGISTER, Nack, PsuSim, PsuState,
                         ReadRequest, REG_CURRENT, REG_VOLTAGE, Reply,
                         SetVoltage, UnknownId, UnknownRegister,
                         ValueOutOfRange, decode,
                         decode_frame, encode, encode_frame, request, serve)


class TestFrameCodec:
    def test_frame_is_13_bytes(self):
        wire = encode_frame(CanFrame(ID_READ, b"\x01"))
        assert len(wire) == FRAME_LEN
        assert wire[:4] == bytes([0x10, 0x01, 0x80, 0x01])
        assert wire[4] == DLC

    def test_payload_zero_padded_to_8(self):
        frame = CanFrame(ID_READ, b"\x02")
        assert len(frame.payload) == 8
        assert frame.payload == b"\x02" + b"\x00" * 7

    def test_short_input_rejected(self):
        with pytest.raises(BadLength):
            decode_frame(b"\x00" * 12)
        with pytest.raises(BadLength):
            decode_frame(b"\x00" * 14)

    def test_bad_dlc_rejected(self):
        wire = bytearray(encode_frame(CanFrame(ID_READ, b"\x01")))
        wire[4] = 7
        with pytest.raises(BadDlc):
            decode_frame(bytes(wire))

    def test_id_beyond_29_bits_rejected(self):
        with pytest.raises(UnknownId):
            CanFrame(1 << 29, b"")
        wire = b"\xff\xff\xff\xff" + bytes([DLC]) + b"\x00" * 8
        with pytest.raises(UnknownId):
            decode_frame(wire)


class TestCommandCodec:
    def test_set_voltage_48_payload(self):
        wire = encode(SetVoltage(48.0))
        # 48000 mV big-endian in payload bytes 4..7
        assert wire[5 + 4:5 + 8] == bytes([0x00, 0x00, 0xBB, 0x80])
        assert wire[5] == REG_VOLTAGE

    @pytest.mark.parametrize("cmd", [
        SetVoltage(48.0), SetVoltage(30.001), SetVoltage(58.0),
        ReadRequest(REG_VOLTAGE), ReadRequest(REG_CURRENT),
        Reply(REG_VOLTAGE, 58000), Reply(REG_CURRENT, 12345),
        Nack(0x01), Nack(0x03),
    ])
    def test_round_trip_identity(self, cmd):
        assert decode(encode(cmd)) == cmd

    def test_fuzzed_round_trip(self):
        import numpy as np
        rng = np.random.default_rng(0xCAFE)
        for _ in range(2000):
            k = rng.integers(0, 4)
            if k == 0:
                cmd = SetVoltage(volts=int(rng.integers(0, 100_000)) / 1000.0)
            elif k == 1:
                cmd = ReadRequest(register=int(rng.choice([1, 2])))
            elif k == 2:
                cmd = Reply(register=int(rng.choice([1, 2])),
                            milli_value=int(rng.integers(0, 2 ** 32)))
            else:
                cmd = Nack(code=int(rng.integers(0, 256)))
            wire = encode(cmd)
            assert len(wire) == FRAME_LEN
            assert decode(wire) == cmd

    @pytest.mark.parametrize("cmd", [
        SetVoltage(-5.0), SetVoltage(4_294_967.296), SetVoltage(math.inf),
        SetVoltage(-math.inf), SetVoltage(math.nan),
        Reply(REG_VOLTAGE, -1), Reply(REG_CURRENT, 2 ** 32),
        Reply(REG_VOLTAGE, math.inf), Reply(REG_VOLTAGE, math.nan),
    ])
    def test_unencodable_values_rejected(self, cmd):
        with pytest.raises(ValueOutOfRange):
            encode(cmd)

    def test_u32_edges_encode(self):
        assert decode(encode(SetVoltage(0.0))) == SetVoltage(0.0)
        assert decode(encode(SetVoltage(4_294_967.295))) == SetVoltage(4_294_967.295)
        assert decode(encode(Reply(REG_VOLTAGE, 2 ** 32 - 1))).milli_value == 2 ** 32 - 1

    def test_unknown_register_rejected(self):
        wire = bytearray(encode(ReadRequest(REG_VOLTAGE)))
        wire[5] = 0x07
        with pytest.raises(UnknownRegister):
            decode(bytes(wire))

    def test_unknown_id_rejected(self):
        wire = encode_frame(CanFrame(0x10018009, b"\x01"))
        with pytest.raises(UnknownId):
            decode(wire)


class TestPsuDynamics:
    def test_overvoltage_request_clamps_to_58(self):
        sim = PsuSim()
        reply = decode(sim.handle_wire(encode(SetVoltage(60.0))))
        assert reply == Reply(REG_VOLTAGE, 58000)
        assert sim.state.set_voltage_v == 58.0

    def test_undervoltage_request_clamps_to_30(self):
        sim = PsuSim()
        reply = decode(sim.handle_wire(encode(SetVoltage(25.0))))
        assert reply == Reply(REG_VOLTAGE, 30000)

    def test_slew_example(self):
        sim = PsuSim(PsuState(set_voltage_v=48.0, actual_voltage_v=48.0,
                              slew_v_per_s=50.0))
        _, replies = sim.step(0.1, [decode_frame(encode(SetVoltage(58.0)))])
        assert sim.state.actual_voltage_v == pytest.approx(53.0)
        assert decode(encode_frame(replies[0])) == Reply(REG_VOLTAGE, 58000)
        sim.step(0.1, [])
        assert sim.state.actual_voltage_v == pytest.approx(58.0)

    def test_never_overshoots_and_respects_slew(self):
        import numpy as np
        rng = np.random.default_rng(5)
        sim = PsuSim(PsuState(slew_v_per_s=50.0))
        for _ in range(500):
            target = float(rng.uniform(20.0, 70.0))
            dt = float(rng.uniform(1e-4, 0.3))
            before = sim.state.actual_voltage_v
            sim.step(dt, [decode_frame(encode(SetVoltage(target)))])
            after = sim.state.actual_voltage_v
            setv = sim.state.set_voltage_v
            assert abs(after - before) <= 50.0 * dt + 1e-12
            # no overshoot: after stays between before and the setpoint
            lo, hi = min(before, setv), max(before, setv)
            assert lo - 1e-12 <= after <= hi + 1e-12

    @settings(deadline=None)
    @given(slew=st.floats(0.1, 1000.0), start=st.floats(30.0, 58.0),
           steps=st.lists(st.tuples(st.floats(30.0, 58.0),
                                    st.floats(0.0, 10.0)),
                          min_size=1, max_size=30))
    def test_advance_never_overshoots_and_respects_slew(self, slew, start,
                                                        steps):
        sim = PsuSim(PsuState(set_voltage_v=start, actual_voltage_v=start,
                              slew_v_per_s=slew))
        for target, dt in steps:
            sim.state.set_voltage_v = target
            before = sim.state.actual_voltage_v
            sim.advance(dt)
            after = sim.state.actual_voltage_v
            eps = 1e-12 * max(abs(before), abs(target))
            assert abs(after - before) <= slew * dt + eps
            lo, hi = min(before, target), max(before, target)
            assert lo - eps <= after <= hi + eps

    @pytest.mark.parametrize("dt", [math.nan, math.inf, -math.inf, -0.1])
    def test_advance_rejects_bad_dt(self, dt):
        sim = PsuSim(PsuState(set_voltage_v=58.0, actual_voltage_v=40.0))
        with pytest.raises(ValueError, match="dt"):
            sim.advance(dt)
        assert sim.state.actual_voltage_v == 40.0

    def test_read_current_under_load(self):
        sim = PsuSim(PsuState(load_current_a=28.7449))
        reply = decode(sim.handle_wire(encode(ReadRequest(REG_CURRENT))))
        assert reply == Reply(REG_CURRENT, round(1000 * 28.7449))

    def test_read_voltage_reports_actual(self):
        sim = PsuSim(PsuState(set_voltage_v=58.0, actual_voltage_v=50.5))
        reply = decode(sim.handle_wire(encode(ReadRequest(REG_VOLTAGE))))
        assert reply == Reply(REG_VOLTAGE, 50500)

    def test_malformed_frames_are_state_neutral(self):
        sim = PsuSim(PsuState(set_voltage_v=44.0, actual_voltage_v=44.0,
                              load_current_a=3.0))
        before = (sim.state.set_voltage_v, sim.state.actual_voltage_v,
                  sim.state.load_current_a)
        bad_reg = bytearray(encode(SetVoltage(50.0)))
        bad_reg[5] = 0x99
        bad_dlc = bytearray(encode(SetVoltage(50.0)))
        bad_dlc[4] = 3
        bad_id = encode_frame(CanFrame(0x1FFFFFFF, b"\x01"))
        for wire in (bytes(bad_reg), bytes(bad_dlc), bad_id):
            reply = decode(sim.handle_wire(wire))
            assert isinstance(reply, Nack)
            assert (sim.state.set_voltage_v, sim.state.actual_voltage_v,
                    sim.state.load_current_a) == before

    def test_nack_code_for_unknown_register(self):
        sim = PsuSim()
        wire = bytearray(encode(ReadRequest(REG_VOLTAGE)))
        wire[5] = 0x55
        reply = decode(sim.handle_wire(bytes(wire)))
        assert reply == Nack(NACK_UNKNOWN_REGISTER)


class TestSocketTransport:
    def test_set_then_read_over_socket(self):
        host, port = "127.0.0.1", 29151
        server = threading.Thread(target=serve, args=(host, port),
                                  kwargs={"max_frames": 2}, daemon=True)
        server.start()
        import time
        deadline = time.time() + 5.0
        reply = None
        while time.time() < deadline:
            try:
                reply = request(host, port, SetVoltage(41.0))
                break
            except (ConnectionRefusedError, OSError):
                time.sleep(0.02)
        assert reply == Reply(REG_VOLTAGE, 41000)
        reply = request(host, port, ReadRequest(REG_VOLTAGE))
        assert isinstance(reply, Reply)
        assert reply.register == REG_VOLTAGE
        server.join(timeout=5.0)
        assert not server.is_alive()

    def test_stalled_client_is_dropped(self, monkeypatch):
        monkeypatch.setattr(psusim, "CONN_TIMEOUT_S", 0.2)
        host, port = "127.0.0.1", 29152
        server = threading.Thread(target=serve, args=(host, port),
                                  kwargs={"max_frames": 1}, daemon=True)
        server.start()
        deadline = time.time() + 5.0
        while True:
            try:
                stalled = socket.create_connection((host, port), timeout=5.0)
                break
            except OSError:
                if time.time() > deadline:
                    raise
                time.sleep(0.02)
        with stalled:
            stalled.sendall(encode(SetVoltage(41.0))[:5])  # 5 of 13 bytes
            reply = request(host, port, SetVoltage(42.0))
        assert reply == Reply(REG_VOLTAGE, 42000)
        server.join(timeout=5.0)
        assert not server.is_alive()
