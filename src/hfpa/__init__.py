"""HF power-amplifier toolkit: behavioral PA model, envelope-aware bias
control, measurement harness, and a CAN-style supply simulator."""
