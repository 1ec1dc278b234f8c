"""HF power-amplifier toolkit: behavioral PA model, envelope-aware bias
control, measurement harness, and a CAN-style supply simulator."""

from .signalgen import IqBlock, Kind, WaveformSpec, generate
from .pamodel import (BiasPoint, PaParams, PaStats, am_am,
                      conduction_currents, efficiency_curve, load_params,
                      save_params, simulate)
from .measure import ImdResult, MeasRow, freq_response, measure_imd, sweep_bias
from .calibrate import AnchorRow, FitReport, REFERENCE_ANCHORS, fit, objective
from .biasctl import (BiasCommand, BiasController, EnvelopeClass, Mode,
                      classify_envelope, decide_bias, equalize_gains,
                      gate_step_for, track_drain)

__version__ = "0.1.0"
