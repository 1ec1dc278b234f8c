"""Simulated CAN-controlled programmable drain supply plus its client codec.

Wire format (bit-exact, normative for this artifact): one frame is 13 bytes,
a 4-byte big-endian 29-bit extended identifier (top 3 bits zero), one DLC
byte that must read 8, and 8 payload bytes. A simplified register protocol
rides on top:

    SET_VOLTAGE  id 0x10018000  payload[0]=0x01, payload[4:8]=u32 BE millivolts
    READ         id 0x10018001  payload[0]=register (0x01 volts, 0x02 amps)
    REPLY        id 0x10018002  payload[0]=register, payload[4:8]=u32 BE milli-units
    NACK         id 0x10018003  payload[0]=error code

All four commands share one frame layout, ``_FRAME``: the id, the DLC,
payload byte 0 (the register or NACK code), three zero bytes and the u32
value, which READ and NACK leave 0. ``encode`` packs a command with it and
``decode`` unpacks one with it; neither builds a ``CanFrame``. ``CanFrame``
with ``encode_frame``/``decode_frame`` is the raw frame view that
``PsuSim.step`` takes and returns; ``decode_frame`` shares ``decode``'s
header checks.

Set requests clamp into the 30-58 V supply window and are answered with the
clamped value; the output voltage slews toward the setpoint without
overshoot. Malformed frames produce NACKs and never change supply state.
Frames travel over any reliable ordered byte stream; framing is implicit in
the fixed 13-byte length.
"""
from __future__ import annotations

import math
import numbers
import struct
import time
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple, Union

from .spec import VDD_MAX, VDD_MIN  # the supply window clamps SET requests

FRAME_LEN = 13
DLC = 8

ID_SET_VOLTAGE = 0x10018000
ID_READ = 0x10018001
ID_REPLY = 0x10018002
ID_NACK = 0x10018003

REG_VOLTAGE = 0x01
REG_CURRENT = 0x02

#: The register map: register byte -> (CLI name, unit). Every register can
#: be read and travels in replies; only REG_VOLTAGE can be set.
REGISTERS = {REG_VOLTAGE: ("voltage", "V"), REG_CURRENT: ("current", "A")}

NACK_BAD_DLC = 0x01
NACK_UNKNOWN_ID = 0x02
NACK_UNKNOWN_REGISTER = 0x03

U32_MAX = 0xFFFFFFFF

#: Default output slew of the simulated supply, volts per second.
SLEW_V_PER_S = 50.0

#: Seconds ``serve`` waits for a connected client's next whole frame before
#: it drops the client and accepts the next one; well inside ``request``'s
#: 5 s. It bounds the frame, not each ``recv``: a client that sends a byte at
#: a time is dropped once this has passed.
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


#: The frame layout of every command: id, DLC, payload byte 0 (register or
#: NACK code), three zero bytes, u32 value.
_FRAME = struct.Struct(">IBB3xI")


def _parse(data: bytes) -> Tuple[int, int, int]:
    """A wire chunk's id, payload byte 0 and u32 value, after the frame
    checks in wire order: length, DLC, 29-bit id."""
    if len(data) != FRAME_LEN:
        raise BadLength(f"frame must be {FRAME_LEN} bytes, got {len(data)}")
    can_id, dlc, byte0, value = _FRAME.unpack(data)
    if dlc != DLC:
        raise BadDlc(f"DLC must be {DLC}, got {dlc}")
    if can_id >> 29:
        raise UnknownId(f"id {can_id:#x} exceeds 29 bits")
    return can_id, byte0, value


def encode_frame(frame: CanFrame) -> bytes:
    return struct.pack(">IB", frame.can_id, DLC) + frame.payload


def decode_frame(data: bytes) -> CanFrame:
    can_id = _parse(data)[0]
    return CanFrame(can_id=can_id, payload=data[5:])


# --- command layer ----------------------------------------------------------

def to_milli(value: float, unit: str = "V") -> int:
    """Volts or amps to the wire's integer milli-units (round half to even).

    Raises ValueOutOfRange, naming ``value`` in ``unit``, when the scaled
    value is not finite or its count does not fit the u32 field.
    """
    scaled = value * 1000.0
    milli = round(scaled) if math.isfinite(scaled) else -1
    if not 0 <= milli <= U32_MAX:
        raise ValueOutOfRange(f"{value} {unit} does not fit the u32 "
                              f"milli-unit field")
    return milli


def from_milli(milli: int) -> float:
    """The wire's milli-units back to volts or amps."""
    return milli / 1000.0


def _check_register(register: int) -> None:
    """Raise UnknownRegister unless ``register`` is an integer in the map."""
    if not isinstance(register, numbers.Integral):
        raise UnknownRegister(f"register {register!r} is not an integer")
    if register not in REGISTERS:
        raise UnknownRegister(f"register {register:#x}")


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
        return _FRAME.pack(ID_SET_VOLTAGE, DLC, REG_VOLTAGE,
                           to_milli(command.volts))
    if isinstance(command, ReadRequest):
        _check_register(command.register)
        return _FRAME.pack(ID_READ, DLC, command.register, 0)
    if isinstance(command, Reply):
        _check_register(command.register)
        return _FRAME.pack(ID_REPLY, DLC, command.register,
                           _u32(command.milli_value))
    if isinstance(command, Nack):
        code = command.code
        if not (isinstance(code, numbers.Integral) and 0 <= code <= 0xFF):
            raise ValueOutOfRange(f"NACK code {code!r} is not a byte")
        return _FRAME.pack(ID_NACK, DLC, code, 0)
    raise TypeError(f"not a protocol command: {command!r}")


def _u32(milli):
    """A reply's integer milli-unit count that fits the u32 field,
    range-checked."""
    if not (isinstance(milli, numbers.Integral) and 0 <= milli <= U32_MAX):
        raise ValueOutOfRange(f"milli_value {milli!r} is not a u32")
    return milli


def decode(data: bytes) -> Command:
    """13-byte wire chunk to a command; inverse of encode for valid input."""
    can_id, byte0, value = _parse(data)
    if can_id == ID_SET_VOLTAGE:
        if byte0 != REG_VOLTAGE:
            raise UnknownRegister(f"set register {byte0:#x}")
        return SetVoltage(volts=from_milli(value))
    if can_id == ID_READ:
        if byte0 not in REGISTERS:
            raise UnknownRegister(f"read register {byte0:#x}")
        return ReadRequest(register=byte0)
    if can_id == ID_REPLY:
        if byte0 not in REGISTERS:
            raise UnknownRegister(f"reply register {byte0:#x}")
        return Reply(register=byte0, milli_value=value)
    if can_id == ID_NACK:
        return Nack(code=byte0)
    raise UnknownId(f"id {can_id:#x} is not a protocol id")


# --- supply dynamics ---------------------------------------------------------

@dataclass
class PsuState:
    """Supply state. Both voltages lie in the [VDD_MIN, VDD_MAX] window, the
    load current fits the u32 milliamp field of a current reply, and the
    slew is finite and > 0. Each field is checked wherever it is assigned,
    at construction and after it."""

    set_voltage_v: float = 48.0
    actual_voltage_v: float = 48.0
    load_current_a: float = 0.0
    slew_v_per_s: float = SLEW_V_PER_S

    def __setattr__(self, name: str, value) -> None:
        if name in ("set_voltage_v", "actual_voltage_v"):
            if not VDD_MIN <= value <= VDD_MAX:
                raise ValueError(f"{name} must be in [{VDD_MIN:g}, "
                                 f"{VDD_MAX:g}] V, got {value}")
        elif name == "load_current_a":
            try:
                to_milli(value, "A")
            except ValueOutOfRange as exc:
                raise ValueOutOfRange(f"load_current_a {exc}") from None
        elif name == "slew_v_per_s":
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"slew must be finite and > 0, got {value}")
        super().__setattr__(name, value)


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
            return encode(Reply(REG_VOLTAGE, to_milli(clamped)))
        if isinstance(command, ReadRequest):
            value = (self.state.actual_voltage_v
                     if command.register == REG_VOLTAGE
                     else self.state.load_current_a)
            return encode(Reply(command.register, to_milli(value)))
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
        """Process incoming frames in order, then advance time by dt.

        ``dt_s`` must be finite and > 0; a bad one is rejected before any
        frame is applied.
        """
        if not (math.isfinite(dt_s) and dt_s > 0):
            raise ValueError(f"dt must be finite and > 0, got {dt_s}")
        out = [decode_frame(self.handle_wire(encode_frame(f))) for f in frames]
        self.advance(dt_s)
        return self.state, out


# --- socket transport (CLI) ---------------------------------------------------

def serve(host: str, port: int, slew_v_per_s: float,
          max_frames: int | None) -> None:
    """Serve the supply protocol on a local TCP socket.

    Output voltage slews against wall-clock time between frames. Accepts one
    client at a time and drops a client that resets the connection or whose
    next frame has not arrived whole ``CONN_TIMEOUT_S`` after the server
    began to wait for it, however its bytes trickle in; returns after
    max_frames (None = run until the client side closes and then keep
    listening for the next one). A client that keeps sending whole frames
    still holds the server, and every other client waits.
    """
    import socket  # the socket commands alone load it (3-4 ms)

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
                        data = _recv_exact(conn)
                        if data is None:
                            break
                        now = time.monotonic()
                        sim.advance(now - last)
                        last = now
                        conn.sendall(sim.handle_wire(data))
                        handled += 1
                except (TimeoutError, ConnectionError):
                    pass  # drop a stalled or vanished client


def _recv_exact(conn: socket.socket):
    """One frame, ``FRAME_LEN`` bytes, from ``conn``, or None when the peer
    closes first.

    The socket's timeout, which every caller sets, bounds the whole read,
    not each ``recv``: each ``recv`` waits only for what is left of it,
    TimeoutError ends the read once it has passed, and the socket keeps its
    timeout afterwards.
    """
    timeout = conn.gettimeout()
    deadline = time.monotonic() + timeout
    buf = b""
    try:
        while len(buf) < FRAME_LEN:
            left = deadline - time.monotonic()
            if left <= 0:
                raise TimeoutError(
                    f"{len(buf)} of {FRAME_LEN} bytes within {timeout} s")
            conn.settimeout(left)
            chunk = conn.recv(FRAME_LEN - len(buf))
            if not chunk:
                return None
            buf += chunk
    finally:
        conn.settimeout(timeout)
    return buf


def request(host: str, port: int, command: Command) -> Command:
    """Send one command over a socket and decode the reply."""
    import socket

    wire = encode(command)  # before connecting: a bad command never reaches the wire
    with socket.create_connection((host, port), timeout=5.0) as conn:
        conn.sendall(wire)
        data = _recv_exact(conn)
        if data is None:
            raise ConnectionError("supply closed the connection")
        return decode(data)
