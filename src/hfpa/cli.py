"""Command-line front end: experiment subcommands emitting CSV artifacts.

Every subcommand is deterministic: identical invocations produce
byte-identical output files. Exit codes: 0 success, 1 module error,
2 usage error.
"""
from __future__ import annotations

import argparse
import math
import sys
from typing import List, Optional

from . import psusim
from .bands import BANDS
from .spec import (IDQ_REF, VDD_MAX, WINDOW_S, Kind, WaveformSpec, number,
                   records)

_KINDS = {kind.value: kind for kind in Kind}
_KINDS["two-tone"] = Kind.TWO_TONE

_REGISTERS = {name: reg for reg, (name, _) in psusim.REGISTERS.items()}


def _positive_float(text: str) -> float:
    """argparse type: a finite float > 0."""
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text}")
    return value


def _non_negative_float(text: str) -> float:
    """argparse type: a finite float >= 0."""
    value = float(text)
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text}")
    return value


def _non_negative_int(text: str) -> int:
    """argparse type: an int >= 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return value


def _port(text: str) -> int:
    """argparse type: a TCP port number, 0-65535."""
    value = int(text)
    if not 0 <= value <= 65535:
        raise argparse.ArgumentTypeError(f"must be in 0-65535, got {text}")
    return value


def _volts(text: str) -> List[float]:
    """argparse type: comma-separated volts naming at least one voltage;
    empty entries are skipped."""
    try:
        volts = [float(v) for v in text.split(",") if v]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be comma-separated numbers, got {text!r}") from None
    if not volts:
        raise argparse.ArgumentTypeError(f"names no voltage, got {text!r}")
    return volts


def _bands(text: str) -> List[str]:
    """argparse type: 'all', or band ids as ``_volts`` takes volts."""
    bands = list(BANDS) if text == "all" else [b for b in text.split(",") if b]
    if not bands:
        raise argparse.ArgumentTypeError(f"names no band, got {text!r}")
    return bands


def _spec_from_args(args) -> WaveformSpec:
    """Every waveform flag goes in; ``generate`` reads the kind's own fields."""
    return WaveformSpec(
        kind=_KINDS[args.kind], amplitude=args.amplitude,
        duration_s=args.duration, f1_hz=-args.spacing / 2.0,
        f2_hz=args.spacing / 2.0, fm_dev_hz=args.fm_dev,
        fm_rate_hz=args.fm_rate, am_index=args.am_index,
        am_rate_hz=args.am_rate, psk_rate_hz=args.psk_rate,
        psk_order=args.psk_order)


def _add_waveform_flags(p: argparse.ArgumentParser):
    spec = WaveformSpec  # its class attributes are the defaults
    p.add_argument("--kind", required=True, choices=sorted(_KINDS))
    p.add_argument("--amplitude", type=float, default=spec.amplitude,
                   help="peak envelope (normalized)")
    p.add_argument("--duration", type=float, default=0.02, help="seconds")
    p.add_argument("--rate", type=float, default=1e6, help="sample rate, S/s")
    p.add_argument("--spacing", type=float, default=spec.f2_hz - spec.f1_hz,
                   help="two-tone spacing, Hz")
    p.add_argument("--fm-dev", type=float, default=spec.fm_dev_hz)
    p.add_argument("--fm-rate", type=float, default=spec.fm_rate_hz)
    p.add_argument("--am-index", type=float, default=spec.am_index)
    p.add_argument("--am-rate", type=float, default=spec.am_rate_hz)
    p.add_argument("--psk-rate", type=float, default=spec.psk_rate_hz)
    p.add_argument("--psk-order", type=int, default=spec.psk_order,
                   choices=(2, 4))


def _add_endpoint_flags(p: argparse.ArgumentParser):
    """The supply server's address, for the server and its clients."""
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=_port, default=29050)


def _cmd_gen(args) -> int:
    import numpy as np

    from . import measure, signalgen
    block = signalgen.generate(_spec_from_args(args), args.rate)
    t = np.arange(len(block)) / block.sample_rate
    measure.write_csv(args.out, "t_s,i,q",
                      ((f"{ts:.9g}", f"{s.real:.9g}", f"{s.imag:.9g}")
                       for ts, s in zip(t, block.samples)))
    return 0


def _cmd_classify(args) -> int:
    from . import biasctl, signalgen
    block = signalgen.generate(_spec_from_args(args), args.rate)
    cls = biasctl.classify_envelope(block, window_s=args.window)
    print(cls.kind.value)
    return 0


def _cmd_two_tone(args) -> int:
    from . import measure, pamodel, signalgen
    params = pamodel.load_params(args.params)
    bias = pamodel.BiasPoint(vdd=args.vdd, idq=args.idq)
    g, a_sat = pamodel.gain_and_swing(bias, params)
    try:  # 0 dBFS drive puts the two-tone envelope peak at the saturated swing
        peak = (a_sat / g) * 10.0 ** (args.drive_dbfs / 20.0)
    except OverflowError:
        raise ValueError(f"drive {args.drive_dbfs} dBFS is out of range") from None
    spec = signalgen.WaveformSpec(kind=signalgen.Kind.TWO_TONE, amplitude=peak,
                                  duration_s=args.duration,
                                  f1_hz=-args.spacing / 2.0,
                                  f2_hz=args.spacing / 2.0)
    block = signalgen.generate(spec, args.rate)
    out, stats = pamodel.simulate(block, bias, params)
    imd = measure.measure_imd(out, spec.f1_hz, spec.f2_hz)
    row = measure.MeasRow(vdd_v=bias.vdd, idq_a=bias.idq, pout_w=stats.pout_w,
                          gain_db=stats.gain_db, eff_pct=100.0 * stats.eff,
                          pdiss_w=stats.pdiss_w, imd3_dbc=imd.worst(3),
                          imd5_dbc=imd.worst(5))
    measure.write_rows_csv([row], args.out)
    levels = [f"IMD{order} {level:.2f} dBc" if level is not None
              else f"IMD{order} n/a" for order, level in
              ((3, imd.worst(3)), (5, imd.worst(5)))]
    print(", ".join(levels) + f" at {stats.pout_w:.1f} W")
    return 0


def _cmd_sweep_bias(args) -> int:
    from . import measure, pamodel
    params = pamodel.load_params(args.params)
    rows = measure.sweep_bias(args.vdd, args.idq, args.pout, params)
    measure.write_rows_csv(rows, args.out)
    return 0


def _cmd_freq_response(args) -> int:
    from . import measure, pamodel
    params = pamodel.load_params(args.params)
    bias = pamodel.BiasPoint(vdd=args.vdd, idq=args.idq)
    points = measure.freq_response(args.bands, args.drive, bias, params)
    rows = [measure.MeasRow(vdd_v=bias.vdd, idq_a=bias.idq, band=band,
                            pout_w=pout)
            for band, pout in points]
    measure.write_rows_csv(rows, args.out)
    return 0


def _cmd_calibrate(args) -> int:
    from . import calibrate, pamodel
    anchors = (calibrate.read_anchors_csv(args.anchors) if args.anchors
               else list(calibrate.REFERENCE_ANCHORS))
    init = (pamodel.load_params(args.init) if args.init
            else calibrate.default_init(anchors))
    report = calibrate.fit(anchors, init, budget=args.budget)
    pamodel.save_params(report.params, args.out_params)
    if args.out_report:
        calibrate.write_report_csv(report, anchors, args.out_report)
    print(f"residual {report.residual:.4g} after {report.evaluations} evaluations")
    for a, (ge, ee) in zip(anchors, report.per_anchor):
        print(f"  vdd {a.vdd:g} V: gain err {ge:+.3f} dB, eff err {ee:+.3f} pp")
    unreached = [f"{a.pout_w:g} W at {a.vdd:g} V"
                 for a, (ge, _) in zip(anchors, report.per_anchor)
                 if math.isinf(ge)]
    if unreached:
        print("error: fitted params cannot reach anchors "
              + ", ".join(unreached), file=sys.stderr)
        return 1
    return 0


def _cmd_run_controller(args) -> int:
    from . import biasctl, measure, pamodel, signalgen
    params = pamodel.load_params(args.params)
    table = biasctl.default_band_table(ripple=params.ripple)
    controller = biasctl.BiasController(params=params, table=table,
                                        window_s=args.window)
    psu = psusim.PsuSim()
    events = _read_scenario(args.scenario)
    rows = []
    prev_t = None
    for t_s, kind, band, setpoint in events:
        if prev_t is not None:
            psu.advance(t_s - prev_t)  # supply slews across the event gap
        prev_t = t_s
        spec = signalgen.WaveformSpec(kind=_KINDS[kind], amplitude=1.0,
                                      duration_s=max(args.window, 1e-3))
        block = signalgen.generate(spec, args.rate)
        command = controller.process(block, band, setpoint)
        wire = psu.handle_wire(psusim.encode(
            psusim.SetVoltage(command.target.vdd)))
        reply = psusim.decode(wire)
        if not isinstance(reply, psusim.Reply):
            raise RuntimeError(f"supply rejected SET at t={t_s}: {reply}")
        rows.append((t_s, command.mode.value, command.target.vdd,
                     command.target.idq, command.target.gate_step))
    measure.write_csv(args.out, "t_s,mode,vdd_V,idq_A,gate_step", rows)
    return 0


def _read_scenario(path) -> List[tuple]:
    """Scenario lines: `t_s kind band setpoint_W`, times strictly increasing."""
    events = []
    last_t = None
    for where, line in records(path):
        parts = line.split()
        if len(parts) != 4:
            raise ValueError(f"{where}: expected 't_s kind band setpoint_W'")
        t_s, setpoint = number(parts[0], where), number(parts[3], where)
        kind, band = parts[1].lower(), parts[2]
        if kind not in _KINDS:
            raise ValueError(f"{where}: unknown kind {kind!r}")
        if band not in BANDS:
            raise ValueError(f"{where}: unknown band {band!r}")
        if last_t is not None and t_s <= last_t:
            raise ValueError(f"{where}: times must strictly increase")
        last_t = t_s
        events.append((t_s, kind, band, setpoint))
    if not events:
        raise ValueError(f"{path}: empty scenario")
    return events


def _cmd_psu_sim(args) -> int:
    print(f"serving supply protocol on {args.host}:{args.port} "
          f"(slew {args.slew} V/s)")
    psusim.serve(args.host, args.port, slew_v_per_s=args.slew,
                 max_frames=args.max_frames)
    return 0


def _print_reply(reply: psusim.Command, prefix: str = "") -> int:
    if isinstance(reply, psusim.Reply):
        _, unit = psusim.REGISTERS[reply.register]
        print(f"{prefix}{psusim.from_milli(reply.milli_value):.3f} {unit}")
        return 0
    print(f"error: supply answered {reply}", file=sys.stderr)
    return 1


def _cmd_psu_set(args) -> int:
    return _print_reply(psusim.request(args.host, args.port,
                                       psusim.SetVoltage(args.vdd)), "set ")


def _cmd_psu_read(args) -> int:
    return _print_reply(psusim.request(
        args.host, args.port, psusim.ReadRequest(_REGISTERS[args.register])))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hfpa",
        description="HF power-amplifier bias/measurement toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a generated waveform as t_s,i,q CSV")
    _add_waveform_flags(p)
    p.add_argument("--out", "-o", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("classify", help="classify a generated waveform's envelope")
    _add_waveform_flags(p)
    p.add_argument("--window", type=_positive_float, default=WINDOW_S,
                   help="seconds")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("two-tone", help="two-tone IMD measurement")
    p.add_argument("--params", required=True, help="amplifier config file")
    p.add_argument("--drive-dbfs", type=float, default=-10.0,
                   help="peak envelope drive relative to saturation")
    p.add_argument("--vdd", type=float, default=VDD_MAX)
    p.add_argument("--idq", type=float, default=IDQ_REF)
    p.add_argument("--spacing", type=float, default=2000.0)
    p.add_argument("--duration", type=float, default=0.131072)
    p.add_argument("--rate", type=float, default=1e6)
    p.add_argument("--out", "-o", required=True)
    p.set_defaults(func=_cmd_two_tone)

    p = sub.add_parser("sweep-bias", help="drive each vdd to a power target")
    p.add_argument("--vdd", type=_volts, required=True,
                   help="comma-separated volts")
    p.add_argument("--idq", type=float, default=IDQ_REF)
    p.add_argument("--pout", type=float, required=True, help="target watts")
    p.add_argument("--params", required=True)
    p.add_argument("--out", "-o", required=True)
    p.set_defaults(func=_cmd_sweep_bias)

    p = sub.add_parser("freq-response", help="constant-drive power per band")
    p.add_argument("--bands", type=_bands, default="all",
                   help="'all' or comma-separated ids")
    p.add_argument("--drive", type=_non_negative_float, required=True,
                   help="input envelope, volts-equivalent")
    p.add_argument("--vdd", type=float, default=VDD_MAX)
    p.add_argument("--idq", type=float, default=IDQ_REF)
    p.add_argument("--params", required=True)
    p.add_argument("--out", "-o", required=True)
    p.set_defaults(func=_cmd_freq_response)

    p = sub.add_parser("calibrate", help="fit amplifier parameters to anchor rows")
    p.add_argument("--anchors", help="anchor CSV (default: built-in bench table)")
    p.add_argument("--init", help="initial params config (default: documented init)")
    p.add_argument("--budget", type=_non_negative_int, default=3000)
    p.add_argument("--out-params", required=True)
    p.add_argument("--out-report")
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("run-controller", help="replay a scenario through the controller")
    p.add_argument("--scenario", required=True,
                   help="text lines: t_s kind band setpoint_W")
    p.add_argument("--params", required=True)
    p.add_argument("--window", type=_positive_float, default=WINDOW_S)
    p.add_argument("--rate", type=float, default=1e6)
    p.add_argument("--out", "-o", required=True)
    p.set_defaults(func=_cmd_run_controller)

    p = sub.add_parser("psu-sim", help="serve the supply protocol on a socket")
    _add_endpoint_flags(p)
    p.add_argument("--slew", type=_positive_float, default=psusim.SLEW_V_PER_S)
    p.add_argument("--max-frames", type=_non_negative_int, default=None,
                   help="exit after N frames (default: serve forever)")
    p.set_defaults(func=_cmd_psu_sim)

    p = sub.add_parser("psu-set", help="command a supply voltage")
    _add_endpoint_flags(p)
    p.add_argument("--vdd", type=float, required=True)
    p.set_defaults(func=_cmd_psu_set)

    p = sub.add_parser("psu-read", help="read a supply register")
    _add_endpoint_flags(p)
    p.add_argument("--register", choices=_REGISTERS, default="voltage")
    p.set_defaults(func=_cmd_psu_read)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
