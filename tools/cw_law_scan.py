#!/usr/bin/env python3
"""Worst gap between the scalar CW law and ``simulate_cw``, as a fraction of
the power: the figure behind ``measure.DRIVE_PREDICT_MARGIN``.

Usage: ``PYTHONPATH=src python tools/cw_law_scan.py [SEED] [CASES]``
(defaults 1 and 40000).

Each case draws PaParams and a BiasPoint uniformly over the ranges of
``tests/test_pamodel.py``'s ``params_st``/``bias_st``, no band or 40M, and
one drive from three kinds in turn: uniform in [0, 10] saturation drives
``a_sat/g``; within 1e-3 of the clipping onset ``a_out = idq*rload``,
through the exact Rapp inverse; and the drive solve's ceiling
``10*a_sat/g``. It prints the worst ``|law - simulate_cw| / law`` per kind.
"""
from __future__ import annotations

import sys

import numpy as np

from hfpa import measure
from hfpa.pamodel import BiasPoint, PaParams, gain_and_swing

KINDS = ("uniform", "onset", "ceiling")


def draw_drive(kind, rng, g, a_sat, bias, params):
    if kind == "ceiling":
        return 10.0 * a_sat / g
    if kind == "onset":
        r = bias.idq * params.rload * (1.0 + rng.uniform(-1e-3, 1e-3)) / a_sat
        if 0.0 < r < 1.0:
            s2 = 2.0 * params.smoothness
            return a_sat / g * r / (1.0 - r ** s2) ** (1.0 / s2)
    return rng.uniform(0.0, 10.0) * a_sat / g  # also an onset past a_sat


def scan(seed: int, cases: int) -> dict:
    """Worst ``|law - simulate_cw| / law`` per drive kind over ``cases``
    draws from ``seed``."""
    rng = np.random.default_rng(seed)
    worst = dict.fromkeys(KINDS, 0.0)
    for i in range(cases):
        params = PaParams(
            g0=rng.uniform(0.5, 1000.0), kv=rng.uniform(-1.0, 1.0),
            ki=rng.uniform(-10.0, 10.0), rload=rng.uniform(0.05, 0.95),
            vknee=rng.uniform(0.0, 29.0), smoothness=rng.uniform(0.5, 20.0),
            ripple={"40M": rng.uniform(-3.0, 3.0)})
        bias = BiasPoint(vdd=rng.uniform(30.0, 58.0), idq=rng.uniform(0.1, 3.0))
        band = None if rng.random() < 0.5 else "40M"
        g, a_sat = gain_and_swing(bias, params, band)
        kind = KINDS[i % len(KINDS)]
        a = draw_drive(kind, rng, g, a_sat, bias, params)
        pred = measure._cw_pout_law(bias, params, band)(a)
        exact = measure.simulate_cw(a, bias, params, band).pout_w
        if pred > 0:
            worst[kind] = max(worst[kind], abs(pred - exact) / pred)
    return worst


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    seed = int(argv[0]) if argv else 1
    cases = int(argv[1]) if len(argv) > 1 else 40000
    for kind, gap in scan(seed, cases).items():
        print(f"{kind}: {gap:.3g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
