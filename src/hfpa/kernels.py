"""The per-sample envelope pipeline of the amplifier model, in numpy."""
import numpy as np


def rapp(u, a_sat, smooth):
    """Rapp soft limiter ``u / (1 + (u/a_sat)^(2s))^(1/(2s))``, ``s = smooth``.

    ``u`` is the linearly amplified envelope. Where ``(u/a_sat)^(2s)``
    overflows the float range the result is the limit ``a_sat``.
    """
    s2 = 2.0 * smooth
    # overflow is trapped and the block redone, so in-range blocks pay no
    # per-sample test and keep their bits
    try:
        with np.errstate(over="raise"):
            return np.divide(u, (1.0 + (u / a_sat) ** s2) ** (1.0 / s2))
    except FloatingPointError:
        with np.errstate(over="ignore", invalid="ignore"):
            den = (1.0 + (u / a_sat) ** s2) ** (1.0 / s2)
            return np.where(np.isinf(den), a_sat, u / den)


def pa_pipeline(env, g, a_sat, idq, params):
    """Run the per-sample amplifier pipeline over an envelope block.

    ``g, a_sat`` come from ``pamodel.gain_and_swing``; ``params`` gives
    ``s``, ``rload`` and the shaping terms. For each envelope sample ``e``:

    * soft-limited output swing ``a = rapp(g*e, a_sat, s)``
    * drain-current demand ``ipk = a / rload`` fed to the clipped-cosine
      Fourier components (DC ``idc`` and fundamental ``i1``)
    * overdrive shaping factor ``1 - beta*r^p / (1 + c*r^p)``, ``r = a/a_sat``

    Returns the per-sample ``a`` and ``(sum(a^2), sum(a*i1), sum(idc*shape))``.
    """
    aout = rapp(g * env, a_sat, params.smoothness)
    ipk = aout / params.rload
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
    del x, thc, sin_thc, ipk  # free block-sized temporaries before shaping
    r = aout / a_sat
    rp = r ** params.shape_exp
    shape = 1.0 - params.shape_beta * rp / (1.0 + params.shape_sat * rp)
    return (aout,
            float(np.sum(aout * aout)),
            float(np.sum(aout * i1)),
            float(np.sum(idc * shape)))
