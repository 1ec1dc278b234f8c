"""The per-sample envelope pipeline of the amplifier model, in numpy."""
import numpy as np


def rapp(u, a_sat, smooth, out=None):
    """Rapp soft limiter ``u / (1 + (u/a_sat)^(2s))^(1/(2s))``, ``s = smooth``.

    ``u`` is the linearly amplified envelope; the result is written into
    ``out`` when given. Where ``(u/a_sat)^(2s)`` overflows the float range
    the result is the limit ``a_sat``.
    """
    s2 = 2.0 * smooth
    # overflow is trapped and the block redone, so in-range blocks pay no
    # per-sample test and keep their bits
    try:
        with np.errstate(over="raise"):
            return np.divide(u, (1.0 + (u / a_sat) ** s2) ** (1.0 / s2), out=out)
    except FloatingPointError:
        with np.errstate(over="ignore", invalid="ignore"):
            den = (1.0 + (u / a_sat) ** s2) ** (1.0 / s2)
            res = np.where(np.isinf(den), a_sat, u / den)
    if out is None:
        return res
    out[...] = res
    return out


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
    # clipped cosine i(th) = max(0, idq + ipk*cos th); flooring ipk at idq
    # pins the arccos argument at -1 for the unclipped (ipk <= idq) and
    # zero-drive cases, so one closed form covers them: thc = pi gives
    # idc = idq, i1 = ipk. cos(thc) = x and sin(thc) = sqrt(1 - x^2) spare
    # two transcendentals per sample.
    x = -idq / np.maximum(ipk, idq)
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
