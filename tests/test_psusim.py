"""Supply-protocol tests: bit-exact codec, round-trip identity, clamp and
slew dynamics, and the socket transport."""
import dataclasses
import math
import numbers
import socket
import struct
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hfpa import pamodel, psusim
from hfpa.psusim import (BadDlc, BadLength, CanFrame, DLC, FRAME_LEN,
                         ID_NACK, ID_READ, ID_REPLY, ID_SET_VOLTAGE,
                         NACK_BAD_DLC, NACK_UNKNOWN_ID, NACK_UNKNOWN_REGISTER,
                         Nack, PsuSim, PsuState,
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

    def test_payload_past_the_dlc_rejected(self):
        with pytest.raises(BadLength, match="^payload 9 bytes exceeds 8$"):
            CanFrame(1, bytes(9))

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

    def test_decode_frame_id_message(self):
        wire = bytes.fromhex("30018000") + bytes([DLC]) + b"\x00" * 8
        with pytest.raises(UnknownId, match="^id 0x30018000 exceeds 29 bits$"):
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

    @given(st.one_of(
        st.builds(lambda mv: SetVoltage(mv / 1000.0),
                  st.integers(0, psusim.U32_MAX)),
        st.builds(ReadRequest, st.sampled_from([REG_VOLTAGE, REG_CURRENT])),
        st.builds(Reply, st.sampled_from([REG_VOLTAGE, REG_CURRENT]),
                  st.integers(0, psusim.U32_MAX)),
        st.builds(Nack, st.integers(0, 255))))
    def test_round_trip_property(self, cmd):
        wire = encode(cmd)
        assert len(wire) == FRAME_LEN
        assert decode(wire) == cmd

    @given(st.one_of(
        st.binary(min_size=FRAME_LEN, max_size=FRAME_LEN),
        # near-valid frames: a protocol id (or one past 29 bits), mostly
        # DLC 8 and a register byte around the register map
        st.builds(lambda can_id, dlc, reg, rest:
                  struct.pack(">IB", can_id, dlc) + bytes([reg]) + rest,
                  st.sampled_from([ID_SET_VOLTAGE, ID_READ, ID_REPLY,
                                   ID_NACK, ID_SET_VOLTAGE | 1 << 29]),
                  st.one_of(st.just(DLC), st.integers(0, 255)),
                  st.integers(0, 3), st.binary(min_size=7, max_size=7))))
    def test_any_chunk_gets_a_frame_and_only_a_set_moves_state(self, chunk):
        sim = PsuSim()
        before = dataclasses.replace(sim.state)
        reply = sim.handle_wire(chunk)
        assert len(reply) == FRAME_LEN
        assert isinstance(decode(reply), (Reply, Nack))
        try:
            command = decode(chunk)
        except ValueError:
            command = None
        if isinstance(command, SetVoltage):
            before.set_voltage_v = min(max(command.volts, psusim.VDD_MIN),
                                       psusim.VDD_MAX)
        assert sim.state == before

    @pytest.mark.parametrize("cmd", [
        SetVoltage(-5.0), SetVoltage(4_294_967.296), SetVoltage(math.inf),
        SetVoltage(-math.inf), SetVoltage(math.nan),
        Reply(REG_VOLTAGE, -1), Reply(REG_CURRENT, 2 ** 32),
        Reply(REG_VOLTAGE, math.inf), Reply(REG_VOLTAGE, math.nan),
    ])
    def test_unencodable_values_rejected(self, cmd):
        with pytest.raises(ValueOutOfRange):
            encode(cmd)

    @pytest.mark.parametrize("value", [
        1e308, 1e300, -1e308, -0.0006, 4_294_967.2955, math.nan, math.inf])
    def test_to_milli_rejects_what_the_u32_field_cannot_hold(self, value):
        # 4294967.2955 A rounds half to even to 2**32 mA
        with pytest.raises(ValueOutOfRange) as err:
            psusim.to_milli(value, "A")
        assert str(err.value) == (f"{value} A does not fit the u32 "
                                  f"milli-unit field")

    def test_to_milli_keeps_the_u32_edges(self):
        assert psusim.to_milli(-0.0005) == 0  # rounds half to even
        assert psusim.to_milli(4_294_967.295) == psusim.U32_MAX

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


    @pytest.mark.parametrize("cmd, error", [
        (Nack(300), ValueOutOfRange),
        (Nack(256), ValueOutOfRange),
        (Nack(-1), ValueOutOfRange),
        (Nack(1.5), ValueOutOfRange),
        (Nack(np.float64(1.0)), ValueOutOfRange),
        (Nack("1"), ValueOutOfRange),
        (ReadRequest(1.0), UnknownRegister),
        (ReadRequest(1.5), UnknownRegister),
        (ReadRequest("1"), UnknownRegister),
        (ReadRequest(None), UnknownRegister),
        (ReadRequest([1]), UnknownRegister),
        (Reply(1.0, 5), UnknownRegister),
        (Reply(np.float64(2.0), 5), UnknownRegister),
    ])
    def test_bad_register_or_code_raises_the_module_error(self, cmd, error):
        with pytest.raises(error):
            encode(cmd)

    @pytest.mark.parametrize("cmd, plain", [
        (Nack(np.uint8(3)), Nack(3)),
        (Nack(np.int64(255)), Nack(255)),
        (ReadRequest(np.int64(REG_CURRENT)), ReadRequest(REG_CURRENT)),
        (Reply(np.int32(REG_VOLTAGE), np.int64(5)), Reply(REG_VOLTAGE, 5)),
        (Reply(REG_CURRENT, np.uint32(psusim.U32_MAX)),
         Reply(REG_CURRENT, psusim.U32_MAX)),
    ])
    def test_numpy_integers_encode_as_python_ints(self, cmd, plain):
        assert encode(cmd) == encode(plain)
        assert decode(encode(cmd)) == plain


# --- the CanFrame codec as it was before the one-struct layout: the oracle ---

def reference_check_register(register, context=""):
    if register not in psusim.REGISTERS:
        raise UnknownRegister(f"{context}register {register:#x}")


def reference_u32(milli, what):
    if not (isinstance(milli, numbers.Integral) and 0 <= milli <= psusim.U32_MAX):
        raise ValueOutOfRange(f"{what} {milli!r} is not a u32")
    return struct.pack(">I", milli)


def reference_encode(command):
    if isinstance(command, SetVoltage):
        # a value that is not a number fails in to_milli's multiply
        volts = command.volts
        if isinstance(volts, numbers.Real) and not math.isfinite(volts):
            raise ValueOutOfRange(f"{volts} V does not fit the u32 "
                                  f"milli-unit field")
        payload = (bytes([REG_VOLTAGE]) + b"\x00\x00\x00"
                   + reference_u32(psusim.to_milli(command.volts),
                                   "millivolts"))
        return encode_frame(CanFrame(ID_SET_VOLTAGE, payload))
    if isinstance(command, ReadRequest):
        reference_check_register(command.register)
        return encode_frame(CanFrame(ID_READ, bytes([command.register])))
    if isinstance(command, Reply):
        reference_check_register(command.register)
        payload = (bytes([command.register]) + b"\x00\x00\x00"
                   + reference_u32(command.milli_value, "milli_value"))
        return encode_frame(CanFrame(ID_REPLY, payload))
    if isinstance(command, Nack):
        return encode_frame(CanFrame(ID_NACK, bytes([command.code])))
    raise TypeError(f"not a protocol command: {command!r}")


def reference_decode_frame(data):
    if len(data) != FRAME_LEN:
        raise BadLength(f"frame must be {FRAME_LEN} bytes, got {len(data)}")
    can_id, dlc = struct.unpack(">IB", data[:5])
    if dlc != DLC:
        raise BadDlc(f"DLC must be {DLC}, got {dlc}")
    return CanFrame(can_id=can_id, payload=data[5:])


def reference_decode(data):
    frame = reference_decode_frame(data)
    payload = frame.payload
    if frame.can_id == ID_SET_VOLTAGE:
        if payload[0] != REG_VOLTAGE:
            raise UnknownRegister(f"set register {payload[0]:#x}")
        mv = struct.unpack(">I", payload[4:8])[0]
        return SetVoltage(volts=psusim.from_milli(mv))
    if frame.can_id == ID_READ:
        reference_check_register(payload[0], "read ")
        return ReadRequest(register=payload[0])
    if frame.can_id == ID_REPLY:
        reference_check_register(payload[0], "reply ")
        return Reply(register=payload[0],
                     milli_value=struct.unpack(">I", payload[4:8])[0])
    if frame.can_id == ID_NACK:
        return Nack(code=payload[0])
    raise UnknownId(f"id {frame.can_id:#x} is not a protocol id")


def reference_handle_wire(state, data):
    try:
        command = reference_decode(data)
    except BadDlc:
        return reference_encode(Nack(NACK_BAD_DLC))
    except UnknownRegister:
        return reference_encode(Nack(NACK_UNKNOWN_REGISTER))
    except (UnknownId, BadLength):
        return reference_encode(Nack(NACK_UNKNOWN_ID))
    if isinstance(command, SetVoltage):
        clamped = min(max(command.volts, psusim.VDD_MIN), psusim.VDD_MAX)
        state.set_voltage_v = clamped
        return reference_encode(Reply(REG_VOLTAGE, psusim.to_milli(clamped)))
    if isinstance(command, ReadRequest):
        value = (state.actual_voltage_v if command.register == REG_VOLTAGE
                 else state.load_current_a)
        return reference_encode(Reply(command.register,
                                      psusim.to_milli(value)))
    return reference_encode(Nack(NACK_UNKNOWN_ID))


def outcome(fn, arg):
    """What ``fn(arg)`` gives: its value, or its exception's type and text."""
    try:
        return fn(arg)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        assert not isinstance(exc, struct.error), exc
        return type(exc), str(exc)


def fixed_error(command):
    """The module error that ``encode`` now raises where the old codec let a
    register that is not an integer in the map, or a NACK code that is not an
    integer byte, reach ``bytes()``; None for every other command."""
    if isinstance(command, (ReadRequest, Reply)):
        register = command.register
        if not (isinstance(register, numbers.Integral)
                and register in psusim.REGISTERS):
            return UnknownRegister
    if isinstance(command, Nack):
        code = command.code
        if not (isinstance(code, numbers.Integral) and 0 <= code <= 0xFF):
            return ValueOutOfRange
    return None


U32_EDGES = [0, 1, 48_000, psusim.U32_MAX - 1, psusim.U32_MAX,
             psusim.U32_MAX + 1, -1, 2 ** 64]
ODD_VALUES = [None, "1", 1.0, 1.5, -0.0, math.nan, math.inf, -math.inf,
              True, np.int64(1), np.uint8(2), np.float64(2.0), [1]]
REGISTER_VALUES = st.one_of(st.integers(-2, 300), st.sampled_from(ODD_VALUES))
MILLI_VALUES = st.one_of(st.integers(-2, psusim.U32_MAX + 2),
                         st.sampled_from(U32_EDGES + ODD_VALUES),
                         st.floats(allow_nan=True, allow_infinity=True))
VOLTS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.builds(lambda mv: mv / 1000.0, st.sampled_from(U32_EDGES)),
    st.builds(lambda mv: mv / 1000.0 + 0.0005,
              st.integers(-2, psusim.U32_MAX + 2)),
    st.sampled_from([None, "48", 48, np.float64(48.0), True]))
COMMANDS = st.one_of(
    st.builds(SetVoltage, VOLTS),
    st.builds(ReadRequest, REGISTER_VALUES),
    st.builds(Reply, REGISTER_VALUES, MILLI_VALUES),
    st.builds(Nack, st.one_of(st.integers(-2, 300),
                              st.sampled_from(ODD_VALUES))),
    st.sampled_from([None, b"\x00" * FRAME_LEN, CanFrame(ID_READ, b"\x01")]))

PROTOCOL_IDS = [ID_SET_VOLTAGE, ID_READ, ID_REPLY, ID_NACK]
NEAR_FRAMES = st.builds(
    lambda can_id, dlc, reg, rest, cut: (
        struct.pack(">IB", can_id, dlc) + bytes([reg]) + rest)[:cut],
    st.one_of(st.sampled_from(PROTOCOL_IDS + [0x10018004, 0]),
              st.builds(lambda i, bit: i | 1 << bit,
                        st.sampled_from(PROTOCOL_IDS), st.integers(29, 31)),
              st.integers(0, 2 ** 32 - 1)),
    st.one_of(st.just(DLC), st.integers(0, 255)),
    st.one_of(st.integers(0, 3), st.integers(0, 255)),
    st.binary(min_size=7, max_size=15),
    st.one_of(st.just(FRAME_LEN), st.integers(0, 20)))
CHUNKS = st.one_of(st.binary(min_size=0, max_size=20), NEAR_FRAMES)
STATES = st.builds(PsuState, set_voltage_v=st.floats(30.0, 58.0),
                   actual_voltage_v=st.floats(30.0, 58.0),
                   load_current_a=st.floats(0.0, 4_294_967.0))


class TestCodecOracle:
    """The one-struct codec against the CanFrame codec it replaced."""

    @settings(max_examples=500)
    @given(COMMANDS)
    @example(Nack(300))
    @example(ReadRequest(1.0))
    @example(Reply(1.0, -1))
    @example(Reply(REG_VOLTAGE, 2 ** 32))
    @example(SetVoltage(math.nan))
    def test_encode_matches(self, command):
        got = outcome(encode, command)
        error = fixed_error(command)
        if error is None:
            assert got == outcome(reference_encode, command)
        else:
            assert isinstance(got, tuple) and got[0] is error, got

    @settings(max_examples=500)
    @given(CHUNKS)
    def test_decode_matches(self, chunk):
        assert outcome(decode, chunk) == outcome(reference_decode, chunk)
        assert (outcome(decode_frame, chunk)
                == outcome(reference_decode_frame, chunk))

    @settings(max_examples=300)
    @given(STATES, st.lists(st.one_of(CHUNKS, COMMANDS.map(
        lambda c: outcome(reference_encode, c)).filter(
            lambda w: isinstance(w, bytes))), min_size=1, max_size=4))
    def test_handle_wire_matches(self, state, chunks):
        sim = PsuSim(dataclasses.replace(state))
        ref_state = dataclasses.replace(state)
        for chunk in chunks:
            assert (sim.handle_wire(chunk)
                    == reference_handle_wire(ref_state, chunk))
            assert sim.state == ref_state


class TestPsuDynamics:
    def test_supply_window_is_the_bias_window(self):
        assert psusim.VDD_MIN is pamodel.VDD_MIN
        assert psusim.VDD_MAX is pamodel.VDD_MAX

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

    @pytest.mark.parametrize("slew", [math.nan, math.inf, -math.inf, -5.0, 0.0])
    def test_state_rejects_bad_slew(self, slew):
        # a negative slew drove the output away from the setpoint, and a NaN
        # one made a READ raise out of handle_wire
        with pytest.raises(ValueError, match="slew"):
            PsuState(slew_v_per_s=slew)

    @pytest.mark.parametrize("name, value", [
        ("set_voltage_v", 100.0),   # read back as 98 V, outside the window
        ("set_voltage_v", 29.0),
        ("actual_voltage_v", math.nan),  # made a READ raise
        ("actual_voltage_v", math.inf),
        ("load_current_a", -1.0),   # made a current READ raise
        ("load_current_a", math.nan),
        ("load_current_a", 4_294_967.296),
    ])
    def test_state_rejects_out_of_range_values(self, name, value):
        with pytest.raises(ValueError, match=name):
            PsuState(**{name: value})

    @pytest.mark.parametrize("name, value", [
        ("set_voltage_v", 58.5),
        ("actual_voltage_v", math.nan),
        ("load_current_a", -1.0),   # raised only on a later current READ
        ("load_current_a", math.inf),
        ("slew_v_per_s", 0.0),
    ])
    def test_assignment_rejects_out_of_range_values(self, name, value):
        sim = PsuSim()
        before = getattr(sim.state, name)
        with pytest.raises(ValueError, match=name.split("_")[0]):
            setattr(sim.state, name, value)
        assert getattr(sim.state, name) == before

    @pytest.mark.parametrize("value", [1e308, 1e300])
    def test_load_current_past_the_field_is_out_of_range(self, value):
        # 1e308 A overflowed to an OverflowError in the milliamp count
        sim = PsuSim()
        with pytest.raises(ValueOutOfRange, match="^load_current_a "):
            sim.state.load_current_a = value
        assert sim.state.load_current_a == 0.0

    def test_valid_assignment_reads_back_through_the_wire(self):
        sim = PsuSim()
        sim.state.actual_voltage_v = 57.25
        sim.state.load_current_a = 31.5
        sim.state.slew_v_per_s = 10.0
        read = lambda reg: decode(sim.handle_wire(encode(ReadRequest(reg))))
        assert read(REG_VOLTAGE) == Reply(REG_VOLTAGE, 57250)
        assert read(REG_CURRENT) == Reply(REG_CURRENT, 31500)
        sim.state.set_voltage_v = 58.0
        sim.advance(0.05)
        assert sim.state.actual_voltage_v == pytest.approx(57.75)

    def test_state_accepts_its_edges(self):
        sim = PsuSim(PsuState(set_voltage_v=psusim.VDD_MIN,
                              actual_voltage_v=psusim.VDD_MAX,
                              load_current_a=4_294_967.295))
        reply = decode(sim.handle_wire(encode(ReadRequest(REG_CURRENT))))
        assert reply == Reply(REG_CURRENT, psusim.U32_MAX)

    @pytest.mark.parametrize("dt", [math.nan, math.inf, 0.0, -0.1])
    def test_step_rejects_bad_dt_before_any_frame(self, dt):
        sim = PsuSim()
        with pytest.raises(ValueError, match="dt must be finite and > 0"):
            sim.step(dt, [decode_frame(encode(SetVoltage(58.0)))])
        assert sim.state.set_voltage_v == 48.0

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

    @pytest.mark.parametrize("port, client", [
        (29153, "resets mid-frame"), (29154, "sends nothing")],
        ids=["reset", "idle"])
    def test_a_misbehaving_client_is_dropped_in_time(self, monkeypatch, port,
                                                     client):
        # the next client's request is answered within 2 * CONN_TIMEOUT_S:
        # a reset ends the first connection at once, and an idle one after
        # one recv timeout
        monkeypatch.setattr(psusim, "CONN_TIMEOUT_S", 0.2)
        host = "127.0.0.1"
        server = threading.Thread(target=serve, args=(host, port),
                                  kwargs={"max_frames": 1}, daemon=True)
        server.start()
        deadline = time.time() + 5.0
        while True:
            try:
                first = socket.create_connection((host, port), timeout=5.0)
                break
            except OSError:
                if time.time() > deadline:
                    raise
                time.sleep(0.02)
        with first:
            if client == "resets mid-frame":
                first.sendall(encode(SetVoltage(41.0))[:5])
                # linger on with a zero timeout: close sends an RST
                first.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                                 struct.pack("ii", 1, 0))
                first.close()
            t0 = time.monotonic()
            reply = request(host, port, SetVoltage(42.0))
            elapsed = time.monotonic() - t0
        assert reply == Reply(REG_VOLTAGE, 42000)
        assert elapsed < 2 * psusim.CONN_TIMEOUT_S
        server.join(timeout=5.0)
        assert not server.is_alive()

    def test_a_client_sending_a_byte_at_a_time_is_dropped_in_time(self):
        # a byte every 0.3 s never lets one recv wait CONN_TIMEOUT_S (1 s),
        # yet the frame is due whole 1 s after the server waits for it, so
        # the next client's READ is answered within 2 * CONN_TIMEOUT_S
        host, port = "127.0.0.1", 29155
        server = threading.Thread(target=serve, args=(host, port),
                                  kwargs={"max_frames": 1}, daemon=True)
        server.start()
        deadline = time.time() + 5.0
        while True:
            try:
                first = socket.create_connection((host, port), timeout=5.0)
                break
            except OSError:
                if time.time() > deadline:
                    raise
                time.sleep(0.02)
        stop = threading.Event()

        def drip():
            with first:
                for byte in encode(SetVoltage(41.0)):
                    try:
                        first.sendall(bytes([byte]))
                    except OSError:
                        return
                    if stop.wait(0.3):
                        return

        dripper = threading.Thread(target=drip, daemon=True)
        dripper.start()
        t0 = time.monotonic()
        reply = request(host, port, ReadRequest(REG_VOLTAGE))
        elapsed = time.monotonic() - t0
        stop.set()
        dripper.join(timeout=5.0)
        assert isinstance(reply, Reply) and reply.register == REG_VOLTAGE
        assert elapsed < 2 * psusim.CONN_TIMEOUT_S
        server.join(timeout=5.0)
        assert not server.is_alive()
