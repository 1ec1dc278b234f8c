"""Seeded workloads of the hfpa benchmark.

Each workload is a closed loop with one caller: the next operation starts
when the previous one has returned. A workload turns the seed into a stream
of operation inputs, runs one operation on a session, and reduces the result
to a tuple of plain values (its digest). A checker judges each digest as it
arrives and keeps only what later verdicts need, so memory does not grow with
the number of operations a run completes. The package under test sees only
the generated inputs.

Why these three workloads:

* ``calibrate`` is what ``hfpa calibrate`` does: ``default_init`` plus a
  fixed-budget ``fit``. It is almost entirely 64-sample CW drive solves, so
  it exercises the short-block path and bypasses signal generation, IMD
  analysis and the supply codec. On roughly 30-45% of the perturbed tables
  ``default_init`` falls back to its base point, which cannot reach 1 kW, so
  the fit ends on the penalty and misses its anchors. Those operations count
  as failed; the perturbation is not narrowed to avoid them.
* ``controller`` replays exciter traffic through the bias controller and
  its supply, one 10 ms window per operation: signal generation, envelope
  classification, the compression-mode drive solve and the only codec
  traffic in the benchmark.
* ``imd`` is one two-tone point per operation on a 131072-sample block. It
  runs the vectorised large-block path and bypasses every short-block
  mechanism, so a change to the short-block path should not move it.

Layers are always reached through module attributes (``signalgen.generate``,
not a name imported at load time) so that the tracing wrappers see every
call.
"""
from __future__ import annotations

import math
import random
import statistics
from dataclasses import dataclass, fields
from typing import Any, Callable, Dict, Iterator, List, Tuple

from hfpa import biasctl, calibrate, measure, pamodel, psusim, signalgen
from hfpa.bands import BANDS

#: Seed kept out of tuning: run it once to confirm a claim on unseen inputs.
HELD_OUT_SEED = 90001

#: Objective evaluations per fit. The acceptance fixture uses 600, but on a
#: shared 2-core VM a 20 s run would then hold about 11 operations and the
#: pass rate would swing with each seed's few tables; at 150 a run holds 44,
#: and the tables tried passed or missed their anchors exactly as at 600.
FIT_BUDGET = 150

#: Parameters of ``fit(REFERENCE_ANCHORS, default_init(), budget=600)``,
#: frozen so that the controller and imd set-up does not include a fit.
FITTED_PARAMS = dict(
    g0=39.77186169216086, kv=0.3911265010177092, ki=0.0,
    rload=0.39944494797481017, vknee=4.126031244194383,
    smoothness=8.517773717432258, shape_beta=3.838792066757417,
    shape_exp=8.159348105161861, shape_sat=20.711290946540622)

SAMPLE_RATE = 1.0e6
WINDOW_S = 0.01
TWO_TONE_S = 0.131072   # 131072 samples at 1 MS/s, the two-tone CLI default
TONE_HZ = 1000.0        # tones at -1 kHz and +1 kHz

Digest = Tuple[Any, ...]


def fitted_params() -> pamodel.PaParams:
    return pamodel.PaParams(**FITTED_PARAMS)


# --- calibrate ----------------------------------------------------------------

GAIN_JITTER_DB = 0.3
EFF_JITTER_PP = 1.5
GAIN_TOL_DB = 0.5       # acceptance criterion 1
EFF_TOL_PP = 2.0
_SCALAR_FIELDS = tuple(f.name for f in fields(pamodel.PaParams)
                       if f.name != "ripple")


def perturbed_anchors(rng: random.Random) -> Tuple[calibrate.AnchorRow, ...]:
    """Reference table with every row moved by up to +-0.3 dB and +-1.5 pp.

    The rows stay at 1 kW and take their dissipation from the AnchorRow
    identity pdiss = pout * (100/eff - 1).
    """
    rows = []
    for ref in calibrate.REFERENCE_ANCHORS:
        gain = ref.gain_db + rng.uniform(-GAIN_JITTER_DB, GAIN_JITTER_DB)
        eff = ref.eff_pct + rng.uniform(-EFF_JITTER_PP, EFF_JITTER_PP)
        rows.append(calibrate.AnchorRow(ref.vdd, gain, eff, 1000.0,
                                        1000.0 * (100.0 / eff - 1.0)))
    return tuple(rows)


def calibrate_inputs(seed: int) -> Iterator[Tuple[calibrate.AnchorRow, ...]]:
    yield tuple(calibrate.REFERENCE_ANCHORS)
    rng = random.Random(seed)
    while True:
        yield perturbed_anchors(rng)


def calibrate_op(session, anchors) -> Digest:
    init = calibrate.default_init(anchors)
    report = calibrate.fit(anchors, init, budget=FIT_BUDGET)
    return (tuple(getattr(report.params, name) for name in _SCALAR_FIELDS),
            report.residual, report.per_anchor, report.evaluations)


def _anchor_errors(params, anchors):
    """Gain and efficiency error per anchor, recomputed by a CW sweep."""
    errs = []
    for a in anchors:
        try:
            row = measure.sweep_bias([a.vdd], 2.0, a.pout_w, params)[0]
        except measure.TargetUnreachable:
            errs.append((math.inf, math.inf))
        else:
            errs.append((row.gain_db - a.gain_db, row.eff_pct - a.eff_pct))
    return tuple(errs)


class Checker:
    """Judges one digest at a time: 'pass', 'miss' or 'wrong: <reason>'."""

    def check(self, inp, digest) -> str:
        raise NotImplementedError

    def finish(self) -> Dict[int, str]:
        """Verdicts that need the whole run, by operation index."""
        return {}

    def report(self) -> Dict[str, Any]:
        return {}


class CalibrateChecker(Checker):
    """'miss' when the fit honestly reports anchors it missed.

    A report whose per-anchor errors differ from a fresh sweep of its own
    parameters is wrong, not a miss.
    """

    def __init__(self):
        self.residuals = []

    def check(self, anchors, digest) -> str:
        if digest is None:
            return "raised"
        values, residual, per_anchor, _ = digest
        self.residuals.append(residual)
        params = pamodel.PaParams(**dict(zip(_SCALAR_FIELDS, values)))
        errs = _anchor_errors(params, anchors)
        if errs != per_anchor:
            return "wrong: per-anchor errors do not match a fresh sweep"
        if not math.isfinite(residual) or residual < 0:
            return f"wrong: residual {residual}"
        if all(abs(g) <= GAIN_TOL_DB and abs(e) <= EFF_TOL_PP for g, e in errs):
            return "pass"
        return "miss"

    def report(self) -> Dict[str, Any]:
        return {"fit_residual": statistics.median(self.residuals)
                if self.residuals else None}


# --- controller -----------------------------------------------------------------

# Restated from the paper rather than taken from the package under test.
CONSTANT_KINDS = frozenset({signalgen.Kind.CW, signalgen.Kind.FM,
                            signalgen.Kind.PSK})
SLEW_V_PER_WINDOW = 50.0 * WINDOW_S    # PsuState default slew, 50 V/s
SUPPLY_START_V = 48.0                  # PsuState default output


def controller_inputs(seed: int) -> Iterator[Tuple[signalgen.Kind, str, float]]:
    """Runs of 1-8 windows of one kind, band and setpoint (100-1000 W)."""
    rng = random.Random(seed)
    kinds = list(signalgen.Kind)
    while True:
        kind = rng.choice(kinds)
        length = rng.randint(1, 8)
        band = rng.choice(BANDS)
        setpoint = rng.uniform(100.0, 1000.0)
        for _ in range(length):
            yield kind, band, setpoint


@dataclass
class ControllerSession:
    controller: biasctl.BiasController
    supply: psusim.PsuSim
    table: Dict[str, Any]


def controller_session() -> ControllerSession:
    params = fitted_params()
    table = biasctl.default_band_table(ripple=params.ripple)
    return ControllerSession(
        controller=biasctl.BiasController(params=params, table=table,
                                          window_s=WINDOW_S),
        supply=psusim.PsuSim(), table=table)


def controller_op(session: ControllerSession, inp) -> Digest:
    kind, band, setpoint = inp
    spec = signalgen.WaveformSpec(kind=kind, amplitude=1.0, duration_s=WINDOW_S)
    block = signalgen.generate(spec, SAMPLE_RATE)
    cmd = session.controller.process(block, band, setpoint)
    supply = session.supply
    set_reply = psusim.decode(supply.handle_wire(
        psusim.encode(psusim.SetVoltage(cmd.target.vdd))))
    supply.advance(WINDOW_S)
    read_reply = psusim.decode(supply.handle_wire(
        psusim.encode(psusim.ReadRequest(psusim.REG_VOLTAGE))))
    return (cmd.reason.kind.value, cmd.reason.papr_db, cmd.reason.ripple_ratio,
            cmd.mode.value, cmd.target.vdd, cmd.target.idq,
            cmd.target.gate_step, set_reply, read_reply,
            session.table[band].eq_vdd)


class ControllerChecker(Checker):
    """Class, hysteresis, operating point and supply replies per window.

    The hysteresis rule and the supply's slew are modelled here from their
    specification, independently of the package.
    """

    HYSTERESIS = 3

    def __init__(self):
        self.mode, self.pending, self.count = "Linear", None, 0
        self.actual_v = SUPPLY_START_V

    def check(self, inp, digest) -> str:
        kind, _, _ = inp
        want_cls = "Constant" if kind in CONSTANT_KINDS else "Varying"
        wanted = "Compression" if want_cls == "Constant" else "Linear"
        if wanted == self.mode:
            self.pending, self.count = None, 0
        elif wanted == self.pending:
            self.count += 1
            if self.count >= self.HYSTERESIS:
                self.mode, self.pending, self.count = wanted, None, 0
        else:
            self.pending, self.count = wanted, 1
        if digest is None:   # the supply saw no traffic in this window
            return "raised"
        cls, _, _, mode, vdd, idq, _, set_reply, read_reply, eq_vdd = digest
        set_v = min(max(round(vdd * 1000.0) / 1000.0, psusim.VDD_MIN),
                    psusim.VDD_MAX)
        delta = set_v - self.actual_v
        if abs(delta) <= SLEW_V_PER_WINDOW:
            self.actual_v = set_v
        else:
            self.actual_v += (SLEW_V_PER_WINDOW if delta > 0
                              else -SLEW_V_PER_WINDOW)
        want_set = psusim.Reply(psusim.REG_VOLTAGE, round(set_v * 1000.0))
        want_read = psusim.Reply(psusim.REG_VOLTAGE,
                                 round(self.actual_v * 1000.0))
        if cls != want_cls:
            return f"wrong: {kind.value} classified {cls}"
        if mode != self.mode:
            return f"wrong: mode {mode}, hysteresis gives {self.mode}"
        if mode == "Linear" and not (idq == 2.0 and vdd == eq_vdd):
            return f"wrong: linear command {vdd} V / {idq} A"
        if mode == "Compression" and not (idq == 0.5 and 30.0 <= vdd <= 58.0):
            return f"wrong: compression command {vdd} V / {idq} A"
        if set_reply != want_set or read_reply != want_read:
            return f"wrong: supply replied {set_reply}, {read_reply}"
        return "pass"


# --- imd ------------------------------------------------------------------------

IMD_VDDS = (58.0, 53.0, 48.0)
IMD_IDQS = (0.5, 2.0)
MONOTONE_TOL_DB = 0.5    # acceptance criterion 5c


def imd_inputs(seed: int) -> Iterator[Tuple[float, float, float]]:
    rng = random.Random(seed)
    while True:
        yield (rng.choice(IMD_VDDS), rng.choice(IMD_IDQS),
               rng.uniform(-30.0, 0.0))


def imd_session():
    return fitted_params()


def imd_op(params, inp) -> Digest:
    vdd, idq, drive_dbfs = inp
    bias = pamodel.BiasPoint(vdd=vdd, idq=idq)
    a_sat = pamodel.saturated_swing(bias, params)
    g = 10.0 ** (pamodel.small_signal_gain_db(bias, params) / 20.0)
    peak = (a_sat / g) * 10.0 ** (drive_dbfs / 20.0)  # 0 dBFS: peak at a_sat
    spec = signalgen.WaveformSpec(kind=signalgen.Kind.TWO_TONE, amplitude=peak,
                                  duration_s=TWO_TONE_S, f1_hz=-TONE_HZ,
                                  f2_hz=TONE_HZ)
    block = signalgen.generate(spec, SAMPLE_RATE)
    out, stats = pamodel.simulate(block, bias, params)
    imd = measure.measure_imd(out, -TONE_HZ, TONE_HZ)
    return (stats.pout_w, stats.pdc_w, stats.eff, stats.pdiss_w, stats.gain_db,
            tuple((p.order, p.offset_hz, p.level_dbc) for p in imd.products),
            imd.worst(3))


class ImdChecker(Checker):
    def __init__(self):
        self.points: Dict[Tuple[float, float], List[Tuple[float, float, int]]] = {}
        self.index = 0

    def check(self, inp, digest) -> str:
        vdd, idq, drive = inp
        index, self.index = self.index, self.index + 1
        if digest is None:
            return "raised"
        _, _, eff, pdiss, _, _, imd3 = digest
        if imd3 is None or not math.isfinite(imd3) or imd3 > 0.0:
            return f"wrong: IMD3 {imd3}"
        if not 0.0 < eff <= 1.0:
            return f"wrong: efficiency {eff}"
        if not pdiss >= 0.0:
            return f"wrong: dissipation {pdiss}"
        self.points.setdefault((vdd, idq), []).append((drive, imd3, index))
        return "pass"

    def finish(self) -> Dict[int, str]:
        """At each bias IMD3 may not improve with drive beyond the tolerance."""
        late = {}
        for points in self.points.values():
            points.sort()
            for (_, lo, _), (_, hi, j) in zip(points, points[1:]):
                if hi < lo - MONOTONE_TOL_DB:
                    late[j] = (f"wrong: IMD3 {hi:.2f} dBc below {lo:.2f} dBc "
                               f"at lower drive")
        return late


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    inputs: Callable[[int], Iterator[Any]]
    session: Callable[[], Any]
    op: Callable[[Any, Any], Digest]
    checker: Callable[[], Checker]
    #: Nominal seconds per operation on a shared 2-core VM; it sizes a run.
    op_cost_s: float


WORKLOADS = {w.name: w for w in (
    Workload("calibrate",
             "default_init + 150-evaluation fit per seeded anchor table: "
             "short-block CW drive solves only; keeps the default_init "
             "fallback visible",
             calibrate_inputs, lambda: None, calibrate_op, CalibrateChecker,
             0.45),
    Workload("controller",
             "10 ms exciter windows through generate, classify, the bias "
             "controller and the supply codec; all kinds, bands and "
             "100-1000 W; hysteresis trips and holds",
             controller_inputs, controller_session, controller_op,
             ControllerChecker, 1.5e-3),
    Workload("imd",
             "two-tone points on 131072-sample blocks: large-block simulate "
             "and IMD analysis; bypasses the short-block path, which must "
             "not move it",
             imd_inputs, imd_session, imd_op, ImdChecker, 0.045),
)}
