"""Simulated CAN-controlled programmable drain supply plus its client codec.

Wire format (bit-exact, normative for this artifact): one frame is 13 bytes,
a 4-byte big-endian 29-bit extended identifier (top 3 bits zero), one DLC
byte that must read 8, and 8 payload bytes. A simplified register protocol
rides on top:

    SET_VOLTAGE  id 0x10018000  payload[0]=0x01, payload[4:8]=u32 BE millivolts
    READ         id 0x10018001  payload[0]=register (0x01 volts, 0x02 amps)
    REPLY        id 0x10018002  payload[0]=register, payload[4:8]=u32 BE milli-units
    NACK         id 0x10018003  payload[0]=error code

Set requests clamp into the 30-58 V supply window and are answered with the
clamped value; the output voltage slews toward the setpoint without
overshoot. Malformed frames produce NACKs and never change supply state.
Frames travel over any reliable ordered byte stream; framing is implicit in
the fixed 13-byte length.
"""
from __future__ import annotations

import math
import numbers
import socket
import struct
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple, Union

FRAME_LEN = 13
DLC = 8

ID_SET_VOLTAGE = 0x10018000
ID_READ = 0x10018001
ID_REPLY = 0x10018002
ID_NACK = 0x10018003

REG_VOLTAGE = 0x01
REG_CURRENT = 0x02

NACK_BAD_DLC = 0x01
NACK_UNKNOWN_ID = 0x02
NACK_UNKNOWN_REGISTER = 0x03

VDD_MIN = 30.0
VDD_MAX = 58.0

U32_MAX = 0xFFFFFFFF

#: Seconds ``serve`` waits on a connected client's next bytes before it drops
#: the client and accepts the next one; well inside ``request``'s 5 s.
CONN_TIMEOUT_S = 1.0


class BadLength(ValueError):
    """Wire chunk is not exactly 13 bytes."""


class BadDlc(ValueError):
    """DLC byte differs from 8."""


class UnknownId(ValueError):
    """Identifier outside 29 bits or not one of the protocol ids."""


class UnknownRegister(ValueError):
    """Register byte not in the register map."""


class ValueOutOfRange(ValueError):
    """Value does not fit the u32 milli-unit field of a payload."""


@dataclass(frozen=True)
class CanFrame:
    """29-bit extended-identifier frame with a fixed 8-byte payload."""

    can_id: int
    payload: bytes

    def __post_init__(self):
        if not 0 <= self.can_id < (1 << 29):
            raise UnknownId(f"id {self.can_id:#x} exceeds 29 bits")
        payload = bytes(self.payload)
        if len(payload) > DLC:
            raise BadLength(f"payload {len(payload)} bytes exceeds {DLC}")
        object.__setattr__(self, "payload", payload.ljust(DLC, b"\x00"))


def encode_frame(frame: CanFrame) -> bytes:
    return struct.pack(">IB", frame.can_id, DLC) + frame.payload


def decode_frame(data: bytes) -> CanFrame:
    if len(data) != FRAME_LEN:
        raise BadLength(f"frame must be {FRAME_LEN} bytes, got {len(data)}")
    can_id, dlc = struct.unpack(">IB", data[:5])
    if dlc != DLC:
        raise BadDlc(f"DLC must be {DLC}, got {dlc}")
    if can_id >> 29:
        raise UnknownId(f"id {can_id:#x} exceeds 29 bits")
    return CanFrame(can_id=can_id, payload=data[5:])


# --- command layer ----------------------------------------------------------

@dataclass(frozen=True)
class SetVoltage:
    volts: float  # quantized to millivolts on the wire


@dataclass(frozen=True)
class ReadRequest:
    register: int


@dataclass(frozen=True)
class Reply:
    register: int
    milli_value: int


@dataclass(frozen=True)
class Nack:
    code: int


Command = Union[SetVoltage, ReadRequest, Reply, Nack]


def encode(command: Command) -> bytes:
    """Command to its 13-byte wire form."""
    if isinstance(command, SetVoltage):
        if not math.isfinite(command.volts):
            raise ValueOutOfRange(f"voltage {command.volts} V is not finite")
        payload = (bytes([REG_VOLTAGE]) + b"\x00\x00\x00"
                   + _u32(round(command.volts * 1000.0), "millivolts"))
        return encode_frame(CanFrame(ID_SET_VOLTAGE, payload))
    if isinstance(command, ReadRequest):
        if command.register not in (REG_VOLTAGE, REG_CURRENT):
            raise UnknownRegister(f"register {command.register:#x}")
        return encode_frame(CanFrame(ID_READ, bytes([command.register])))
    if isinstance(command, Reply):
        if command.register not in (REG_VOLTAGE, REG_CURRENT):
            raise UnknownRegister(f"register {command.register:#x}")
        payload = (bytes([command.register]) + b"\x00\x00\x00"
                   + _u32(command.milli_value, "milli_value"))
        return encode_frame(CanFrame(ID_REPLY, payload))
    if isinstance(command, Nack):
        return encode_frame(CanFrame(ID_NACK, bytes([command.code])))
    raise TypeError(f"not a protocol command: {command!r}")


def _u32(milli, what: str) -> bytes:
    """Big-endian u32 of an integer milli-unit count, range-checked."""
    if not (isinstance(milli, numbers.Integral) and 0 <= milli <= U32_MAX):
        raise ValueOutOfRange(f"{what} {milli!r} is not a u32")
    return struct.pack(">I", milli)


def decode(data: bytes) -> Command:
    """13-byte wire chunk to a command; inverse of encode for valid input."""
    frame = decode_frame(data)
    payload = frame.payload
    if frame.can_id == ID_SET_VOLTAGE:
        if payload[0] != REG_VOLTAGE:
            raise UnknownRegister(f"set register {payload[0]:#x}")
        mv = struct.unpack(">I", payload[4:8])[0]
        return SetVoltage(volts=mv / 1000.0)
    if frame.can_id == ID_READ:
        if payload[0] not in (REG_VOLTAGE, REG_CURRENT):
            raise UnknownRegister(f"read register {payload[0]:#x}")
        return ReadRequest(register=payload[0])
    if frame.can_id == ID_REPLY:
        if payload[0] not in (REG_VOLTAGE, REG_CURRENT):
            raise UnknownRegister(f"reply register {payload[0]:#x}")
        return Reply(register=payload[0],
                     milli_value=struct.unpack(">I", payload[4:8])[0])
    if frame.can_id == ID_NACK:
        return Nack(code=payload[0])
    raise UnknownId(f"id {frame.can_id:#x} is not a protocol id")


# --- supply dynamics ---------------------------------------------------------

@dataclass
class PsuState:
    set_voltage_v: float = 48.0
    actual_voltage_v: float = 48.0
    load_current_a: float = 0.0
    slew_v_per_s: float = 50.0
    online: bool = True


@dataclass
class PsuSim:
    """Reactive supply: consumes command frames, emits replies, slews output.

    Single-threaded and deterministic; host it in-process (tests,
    run-controller) or behind a socket (the psu-sim CLI).
    """

    state: PsuState = field(default_factory=PsuState)

    def handle_wire(self, data: bytes) -> bytes:
        """One wire chunk in, one reply chunk out; bad frames are NACKed."""
        try:
            command = decode(data)
        except BadDlc:
            return encode(Nack(NACK_BAD_DLC))
        except UnknownRegister:
            return encode(Nack(NACK_UNKNOWN_REGISTER))
        except (UnknownId, BadLength):
            return encode(Nack(NACK_UNKNOWN_ID))
        if isinstance(command, SetVoltage):
            clamped = min(max(command.volts, VDD_MIN), VDD_MAX)
            self.state.set_voltage_v = clamped
            return encode(Reply(REG_VOLTAGE, round(clamped * 1000.0)))
        if isinstance(command, ReadRequest):
            if command.register == REG_VOLTAGE:
                return encode(Reply(REG_VOLTAGE,
                                    round(self.state.actual_voltage_v * 1000.0)))
            return encode(Reply(REG_CURRENT,
                                round(self.state.load_current_a * 1000.0)))
        # replies/nacks arriving at the supply are ignored but acknowledged
        return encode(Nack(NACK_UNKNOWN_ID))

    def advance(self, dt_s: float) -> None:
        """Slew the output toward the setpoint; never overshoots."""
        if not (math.isfinite(dt_s) and dt_s >= 0):
            raise ValueError(f"dt must be finite and >= 0, got {dt_s}")
        delta = self.state.set_voltage_v - self.state.actual_voltage_v
        step = self.state.slew_v_per_s * dt_s
        if abs(delta) <= step:
            self.state.actual_voltage_v = self.state.set_voltage_v
        else:
            self.state.actual_voltage_v += step if delta > 0 else -step

    def step(self, dt_s: float,
             frames: Sequence[CanFrame]) -> Tuple[PsuState, List[CanFrame]]:
        """Process incoming frames in order, then advance time by dt."""
        if dt_s <= 0:
            raise ValueError("dt must be > 0")
        out = [decode_frame(self.handle_wire(encode_frame(f))) for f in frames]
        self.advance(dt_s)
        return self.state, out


# --- socket transport (CLI) ---------------------------------------------------

def serve(host: str, port: int, slew_v_per_s: float = 50.0,
          max_frames: int | None = None) -> None:
    """Serve the supply protocol on a local TCP socket.

    Output voltage slews against wall-clock time between frames. Accepts one
    client at a time and drops a client that stalls for ``CONN_TIMEOUT_S``
    or resets the connection; returns after max_frames (None = run until the
    client side closes and then keep listening for the next one).
    """
    import time

    sim = PsuSim(PsuState(slew_v_per_s=slew_v_per_s))
    handled = 0
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as srv:
        srv.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        srv.bind((host, port))
        srv.listen(1)
        last = time.monotonic()
        while max_frames is None or handled < max_frames:
            conn, _ = srv.accept()
            conn.settimeout(CONN_TIMEOUT_S)
            with conn:
                try:
                    while max_frames is None or handled < max_frames:
                        data = _recv_exact(conn, FRAME_LEN)
                        if data is None:
                            break
                        now = time.monotonic()
                        sim.advance(now - last)
                        last = now
                        conn.sendall(sim.handle_wire(data))
                        handled += 1
                except (TimeoutError, ConnectionError):
                    pass  # drop a stalled or vanished client


def _recv_exact(conn: socket.socket, count: int):
    buf = b""
    while len(buf) < count:
        chunk = conn.recv(count - len(buf))
        if not chunk:
            return None
        buf += chunk
    return buf


def request(host: str, port: int, command: Command) -> Command:
    """Send one command over a socket and decode the reply."""
    wire = encode(command)  # before connecting: a bad command never reaches the wire
    with socket.create_connection((host, port), timeout=5.0) as conn:
        conn.sendall(wire)
        data = _recv_exact(conn, FRAME_LEN)
        if data is None:
            raise ConnectionError("supply closed the connection")
        return decode(data)
