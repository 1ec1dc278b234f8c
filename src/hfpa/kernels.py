"""The per-sample envelope pipeline of the amplifier model, in numpy."""
import numpy as np


def rapp(u, a_sat, smooth, out=None):
    """Rapp soft limiter ``u / (1 + (u/a_sat)^(2s))^(1/(2s))``, ``s = smooth``.

    ``u`` is the linearly amplified envelope; the result is written into
    ``out`` when given.
    """
    s2 = 2.0 * smooth
    return np.divide(u, (1.0 + (u / a_sat) ** s2) ** (1.0 / s2), out=out)


def pa_pipeline(env, gain_lin, a_sat, smooth, rload, idq,
                shape_beta, shape_exp, shape_sat, aout_out):
    """Run the per-sample amplifier pipeline over an envelope block.

    For each input envelope sample ``e``:

    * soft-limited output swing ``a = rapp(g*e, a_sat, s)``
    * drain-current demand ``ipk = a / rload`` fed to the clipped-cosine
      Fourier components (DC ``idc`` and fundamental ``i1``)
    * overdrive shaping factor ``1 - beta*r^p / (1 + c*r^p)``, ``r = a/a_sat``

    Fills ``aout_out`` with the output swing per sample and returns the tuple
    ``(sum(a^2), sum(a*i1), sum(idc*shape))``.
    """
    env = np.asarray(env, dtype=np.float64)
    rapp(gain_lin * env, a_sat, smooth, out=aout_out)
    ipk = aout_out / rload
    # clipped cosine i(th) = max(0, idq + ipk*cos th); clamping the arccos
    # argument folds the unclipped (ipk <= idq) and zero-drive cases into the
    # same closed form: thc = pi gives idc = idq, i1 = ipk. cos(thc) = x and
    # sin(thc) = sqrt(1 - x^2) spare two transcendentals per sample.
    with np.errstate(divide="ignore", over="ignore"):
        x = np.clip(-idq / np.maximum(ipk, 1e-300), -1.0, 1.0)
    thc = np.arccos(x)
    sin_thc = np.sqrt(1.0 - x * x)
    idc = (idq * thc + ipk * sin_thc) / np.pi
    i1 = (2.0 * idq * sin_thc + ipk * (thc + sin_thc * x)) / np.pi
    r = aout_out / a_sat
    rp = r ** shape_exp
    shape = 1.0 - shape_beta * rp / (1.0 + shape_sat * rp)
    return (float(np.sum(aout_out * aout_out)),
            float(np.sum(aout_out * i1)),
            float(np.sum(idc * shape)))
