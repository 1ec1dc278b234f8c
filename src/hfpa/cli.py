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

import numpy as np

from . import biasctl, calibrate, measure, pamodel, psusim, signalgen
from .bands import BANDS

_KINDS = {
    "cw": signalgen.Kind.CW,
    "fm": signalgen.Kind.FM,
    "am": signalgen.Kind.AM,
    "psk": signalgen.Kind.PSK,
    "two-tone": signalgen.Kind.TWO_TONE,
    "two_tone": signalgen.Kind.TWO_TONE,
}


def _spec_from_args(args) -> signalgen.WaveformSpec:
    kind = _KINDS[args.kind]
    kwargs = dict(kind=kind, amplitude=args.amplitude, duration_s=args.duration)
    if kind is signalgen.Kind.TWO_TONE:
        kwargs.update(f1_hz=-args.spacing / 2.0, f2_hz=args.spacing / 2.0)
    elif kind is signalgen.Kind.FM:
        kwargs.update(fm_dev_hz=args.fm_dev, fm_rate_hz=args.fm_rate)
    elif kind is signalgen.Kind.AM:
        kwargs.update(am_index=args.am_index, am_rate_hz=args.am_rate)
    elif kind is signalgen.Kind.PSK:
        kwargs.update(psk_rate_hz=args.psk_rate, psk_order=args.psk_order)
    return signalgen.WaveformSpec(**kwargs)


def _add_waveform_flags(p: argparse.ArgumentParser, with_kind: bool = True):
    if with_kind:
        p.add_argument("--kind", required=True, choices=sorted(_KINDS))
    p.add_argument("--amplitude", type=float, default=1.0,
                   help="peak envelope (normalized)")
    p.add_argument("--duration", type=float, default=0.02, help="seconds")
    p.add_argument("--rate", type=float, default=1e6, help="sample rate, S/s")
    p.add_argument("--spacing", type=float, default=2000.0,
                   help="two-tone spacing, Hz")
    p.add_argument("--fm-dev", type=float, default=5000.0)
    p.add_argument("--fm-rate", type=float, default=1000.0)
    p.add_argument("--am-index", type=float, default=0.5)
    p.add_argument("--am-rate", type=float, default=1000.0)
    p.add_argument("--psk-rate", type=float, default=10000.0)
    p.add_argument("--psk-order", type=int, default=2, choices=(2, 4))


def _cmd_gen(args) -> int:
    block = signalgen.generate(_spec_from_args(args), args.rate)
    t = np.arange(len(block)) / block.sample_rate
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write("t_s,i,q\n")
        for ts, s in zip(t, block.samples):
            fh.write(f"{ts:.9g},{s.real:.9g},{s.imag:.9g}\n")
    return 0


def _cmd_classify(args) -> int:
    block = signalgen.generate(_spec_from_args(args), args.rate)
    cls = biasctl.classify_envelope(block, window_s=args.window)
    print(cls.kind.value)
    return 0


def _cmd_two_tone(args) -> int:
    params = pamodel.load_params(args.params)
    bias = pamodel.BiasPoint(vdd=args.vdd, idq=args.idq)
    a_sat = pamodel.saturated_swing(bias, params)
    g = 10.0 ** (pamodel.small_signal_gain_db(bias, params) / 20.0)
    # 0 dBFS drive puts the two-tone envelope peak at the saturated swing
    peak = (a_sat / g) * 10.0 ** (args.drive_dbfs / 20.0)
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
    params = pamodel.load_params(args.params)
    vdds = [float(v) for v in args.vdd.split(",") if v]
    rows = measure.sweep_bias(vdds, args.idq, args.pout, params)
    measure.write_rows_csv(rows, args.out)
    return 0


def _cmd_freq_response(args) -> int:
    params = pamodel.load_params(args.params)
    bias = pamodel.BiasPoint(vdd=args.vdd, idq=args.idq)
    bands = list(BANDS) if args.bands == "all" else args.bands.split(",")
    points = measure.freq_response(bands, args.drive, bias, params)
    rows = [measure.MeasRow(vdd_v=bias.vdd, idq_a=bias.idq, band=band,
                            pout_w=pout)
            for band, pout in points]
    measure.write_rows_csv(rows, args.out)
    return 0


def _cmd_calibrate(args) -> int:
    anchors = (calibrate.read_anchors_csv(args.anchors) if args.anchors
               else list(calibrate.REFERENCE_ANCHORS))
    init = (pamodel.load_params(args.init) if args.init
            else calibrate.default_init(anchors, idq=args.idq))
    report = calibrate.fit(anchors, init, budget=args.budget, idq=args.idq)
    pamodel.save_params(report.params, args.out_params)
    if args.out_report:
        calibrate.write_report_csv(report, anchors, args.out_report)
    print(f"residual {report.residual:.4g} after {report.evaluations} evaluations")
    for a, (ge, ee) in zip(anchors, report.per_anchor):
        print(f"  vdd {a.vdd:g} V: gain err {ge:+.3f} dB, eff err {ee:+.3f} pp")
    return 0


def _cmd_run_controller(args) -> int:
    params = pamodel.load_params(args.params)
    table = biasctl.default_band_table(ripple=params.ripple)
    controller = biasctl.BiasController(params=params, table=table,
                                        window_s=args.window)
    psu = psusim.PsuSim()
    events = _read_scenario(args.scenario)
    lines = ["t_s,mode,vdd_V,idq_A,gate_step"]
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
        lines.append(f"{t_s:.6g},{command.mode.value},"
                     f"{command.target.vdd:.6g},{command.target.idq:.6g},"
                     f"{command.target.gate_step}")
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    return 0


def _read_scenario(path) -> List[tuple]:
    """Scenario lines: `t_s kind band setpoint_W`, times strictly increasing."""
    events = []
    last_t = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 4:
                raise ValueError(f"{path}:{lineno}: expected 't_s kind band setpoint_W'")
            try:
                t_s, setpoint = float(parts[0]), float(parts[3])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
            if not (math.isfinite(t_s) and math.isfinite(setpoint)):
                raise ValueError(f"{path}:{lineno}: t_s and setpoint_W must be finite")
            kind, band = parts[1].lower(), parts[2]
            if kind not in _KINDS:
                raise ValueError(f"{path}:{lineno}: unknown kind {kind!r}")
            if band not in BANDS:
                raise ValueError(f"{path}:{lineno}: unknown band {band!r}")
            if last_t is not None and t_s <= last_t:
                raise ValueError(f"{path}:{lineno}: times must strictly increase")
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


def _cmd_psu_set(args) -> int:
    reply = psusim.request(args.host, args.port, psusim.SetVoltage(args.vdd))
    if isinstance(reply, psusim.Reply):
        print(f"set {reply.milli_value / 1000.0:.3f} V")
        return 0
    print(f"error: supply answered {reply}", file=sys.stderr)
    return 1


def _cmd_psu_read(args) -> int:
    reg = (psusim.REG_VOLTAGE if args.register == "voltage"
           else psusim.REG_CURRENT)
    reply = psusim.request(args.host, args.port, psusim.ReadRequest(reg))
    if isinstance(reply, psusim.Reply):
        unit = "V" if reg == psusim.REG_VOLTAGE else "A"
        print(f"{reply.milli_value / 1000.0:.3f} {unit}")
        return 0
    print(f"error: supply answered {reply}", file=sys.stderr)
    return 1


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
    p.add_argument("--window", type=float, default=0.01, help="seconds")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("two-tone", help="two-tone IMD measurement")
    p.add_argument("--params", required=True, help="amplifier config file")
    p.add_argument("--drive-dbfs", type=float, default=-10.0,
                   help="peak envelope drive relative to saturation")
    p.add_argument("--vdd", type=float, default=58.0)
    p.add_argument("--idq", type=float, default=2.0)
    p.add_argument("--spacing", type=float, default=2000.0)
    p.add_argument("--duration", type=float, default=0.131072)
    p.add_argument("--rate", type=float, default=1e6)
    p.add_argument("--out", "-o", required=True)
    p.set_defaults(func=_cmd_two_tone)

    p = sub.add_parser("sweep-bias", help="drive each vdd to a power target")
    p.add_argument("--vdd", required=True, help="comma-separated volts")
    p.add_argument("--idq", type=float, default=2.0)
    p.add_argument("--pout", type=float, required=True, help="target watts")
    p.add_argument("--params", required=True)
    p.add_argument("--out", "-o", required=True)
    p.set_defaults(func=_cmd_sweep_bias)

    p = sub.add_parser("freq-response", help="constant-drive power per band")
    p.add_argument("--bands", default="all", help="'all' or comma-separated ids")
    p.add_argument("--drive", type=float, required=True,
                   help="input envelope, volts-equivalent")
    p.add_argument("--vdd", type=float, default=58.0)
    p.add_argument("--idq", type=float, default=2.0)
    p.add_argument("--params", required=True)
    p.add_argument("--out", "-o", required=True)
    p.set_defaults(func=_cmd_freq_response)

    p = sub.add_parser("calibrate", help="fit amplifier parameters to anchor rows")
    p.add_argument("--anchors", help="anchor CSV (default: built-in bench table)")
    p.add_argument("--init", help="initial params config (default: documented init)")
    p.add_argument("--budget", type=int, default=3000)
    p.add_argument("--idq", type=float, default=2.0)
    p.add_argument("--out-params", required=True)
    p.add_argument("--out-report")
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("run-controller", help="replay a scenario through the controller")
    p.add_argument("--scenario", required=True,
                   help="text lines: t_s kind band setpoint_W")
    p.add_argument("--params", required=True)
    p.add_argument("--window", type=float, default=0.01)
    p.add_argument("--rate", type=float, default=1e6)
    p.add_argument("--out", "-o", required=True)
    p.set_defaults(func=_cmd_run_controller)

    p = sub.add_parser("psu-sim", help="serve the supply protocol on a socket")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=29050)
    p.add_argument("--slew", type=float, default=50.0)
    p.add_argument("--max-frames", type=int, default=None,
                   help="exit after N frames (default: serve forever)")
    p.set_defaults(func=_cmd_psu_sim)

    p = sub.add_parser("psu-set", help="command a supply voltage")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=29050)
    p.add_argument("--vdd", type=float, required=True)
    p.set_defaults(func=_cmd_psu_set)

    p = sub.add_parser("psu-read", help="read a supply register")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=29050)
    p.add_argument("--register", choices=("voltage", "current"),
                   default="voltage")
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
