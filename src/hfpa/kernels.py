"""The per-sample envelope pipeline of the amplifier model, in numpy.

Block-sized temporaries go into one per-thread workspace (``workspace``): a
``(5, n)`` float64 array for the most recent block length ``n``, kept while
``n <= signalgen.CACHE_MAX_SAMPLES``, so at most 5 MiB per thread. A longer
block gets a fresh workspace that lives only while a caller holds it. Each
stage writes its result into a workspace row with the ufunc's ``out``, in
the same expression, operand order and reduction as the plain form, so the
bits are those of freshly allocated temporaries; what goes is the page
faults (and the zero-filling) of mapping new temporaries on every call. No
returned array is a view of the workspace.

The three block sums are one ``np.add.reduce(rows, axis=1)`` over the
C-contiguous rows of per-sample products: numpy sums each contiguous row as
it sums a 1-D array (a column-wise reduction adds in another order).

A constant envelope (every sample has the first one's bits: a CW drive, and
so every calibration anchor) is evaluated once; its swing and products fill
a fresh ``(4, n)`` block that the same reduction sums, so its sums are the
block form's by construction. Its correctly rounded steps (``*``, ``/``,
``+``, ``-``, ``max``, ``sqrt``) run on Python floats, where ufunc dispatch
would cost more than the arithmetic. Its three powers and ``arccos`` stay in
numpy, on one-lane arrays: numpy's SIMD ``pow`` and ``arccos`` differ from
libm's in the last bits for a few percent of arguments, and ``**`` takes
numpy's exponent-2 and exponent-0.5 fast paths, as it does for a block.
"""
import math
import threading
import weakref

import numpy as np

from .signalgen import CACHE_MAX_SAMPLES

_local = threading.local()

#: Longest block that ``_is_constant`` compares as bytes.
_BYTES_COMPARE_MAX = 4096


def workspace(n):
    """This thread's five float64 scratch rows of length ``n``: a tuple of
    the row views of one C-ordered ``(5, n)`` array, contents undefined.

    Row 0 is the caller's (``pamodel.simulate`` keeps the envelope there);
    ``pa_pipeline`` uses rows 1-4. The rows of the most recent length are
    kept while ``n <= CACHE_MAX_SAMPLES``. Longer ones are only weakly
    referenced, so nested calls in one operation share them and they are
    freed with their last view.
    """
    rows = getattr(_local, "rows", ())
    if rows and rows[0].size == n:
        return rows
    ws = _local.ref() if hasattr(_local, "ref") else None
    if ws is None or ws.shape[1] != n:
        ws = np.empty((5, n))
        _local.ref = weakref.ref(ws)
    rows = tuple(ws)
    _local.rows = rows if n <= CACHE_MAX_SAMPLES else ()
    return rows


def rapp(u, a_sat, smooth):
    """Rapp soft limiter ``u / (1 + (u/a_sat)^(2s))^(1/(2s))``, ``s = smooth``.

    ``u`` is the linearly amplified envelope, ``>= 0`` and possibly ``inf``.
    Where ``(u/a_sat)^(2s)`` overflows the float range, or ``u`` is ``inf``,
    the result is the limit ``a_sat``.
    """
    s2 = 2.0 * smooth
    # overflow, and inf/inf at u = inf, are trapped and the block redone, so
    # in-range blocks pay no per-sample test and keep their bits
    try:
        with np.errstate(over="raise", invalid="raise"):
            return np.divide(u, (1.0 + (u / a_sat) ** s2) ** (1.0 / s2))
    except FloatingPointError:
        with np.errstate(over="ignore", invalid="ignore"):
            den = (1.0 + (u / a_sat) ** s2) ** (1.0 / s2)
            return np.where(np.isinf(den), a_sat, u / den)


def _is_constant(env):
    """Whether every sample of ``env`` has the first one's bits.

    The endpoints are compared first, so a varying block nearly always pays
    one comparison. A short block is then compared as bytes against itself
    shifted by one sample (0.6 us at 64 samples, against 4.5 us for a numpy
    comparison and reduction; timeit, 2-core host); a long one by numpy,
    which copies nothing.
    """
    if not (env.size and env[0] == env[-1]):
        return False
    if env.size <= _BYTES_COMPARE_MAX:
        raw = env.tobytes()
        return raw[env.itemsize:] == raw[:-env.itemsize]
    bits = env.view(np.uint64)
    return bool((bits == bits[0]).all())


def _constant_pipeline(e, n, g, a_sat, idq, params):
    """``pa_pipeline`` of ``n`` samples of level ``e``, the law evaluated
    once (see the module docstring).

    Each step keeps the array form's expression and operand order, so each
    value has the bits of every lane of the array form. One ``errstate``
    covers the whole step: a power past the float range gives ``a_sat``, as
    in ``rapp``'s fallback. ``aout`` is row 0 of the fresh ``(4, n)`` block
    whose rows 1-3 give the sums.
    """
    s2 = 2.0 * params.smoothness
    with np.errstate(over="ignore"):
        u = g * e
        den = ((1.0 + np.array([u / a_sat]) ** s2) ** (1.0 / s2)).item()
        a = a_sat if den == math.inf else u / den
        ipk = a / params.rload
        x = -idq / max(ipk, idq)
        thc = np.arccos(np.array([x])).item()
        sin_thc = math.sqrt(1.0 - x * x)
        idc = (idq * thc + ipk * sin_thc) / math.pi
        i1 = (2.0 * idq * sin_thc + ipk * (thc + sin_thc * x)) / math.pi
        rp = (np.array([a / a_sat]) ** params.shape_exp).item()
    shape = 1.0 - params.shape_beta * rp / (1.0 + params.shape_sat * rp)
    rows = np.empty((4, n))
    rows.T[...] = (a, a * a, a * i1, idc * shape)
    return (rows[0], *np.add.reduce(rows[1:], axis=1).tolist())


def pa_pipeline(env, g, a_sat, idq, params):
    """Run the per-sample amplifier pipeline over an envelope block.

    ``g, a_sat`` come from ``pamodel.gain_and_swing``; ``params`` gives
    ``s``, ``rload`` and the shaping terms. For each envelope sample ``e``:

    * soft-limited output swing ``a = rapp(g*e, a_sat, s)``
    * drain-current demand ``ipk = a / rload`` fed to the clipped-cosine
      Fourier components (DC ``idc`` and fundamental ``i1``)
    * overdrive shaping factor ``1 - beta*r^p / (1 + c*r^p)``, ``r = a/a_sat``

    Returns the per-sample ``a`` (fresh memory, never the workspace) and
    ``(sum(a^2), sum(a*i1), sum(idc*shape))``. ``env`` may be row 0 of
    ``workspace(env.size)``; rows 1-4 are overwritten.

    A constant envelope (``_is_constant``) is evaluated once, on Python
    floats and one-lane numpy arrays, and its products reduced as a block's
    are, with the bits of the block form. The powers and ``arccos`` stay in
    numpy there because libm's differ from numpy's SIMD ones in the last
    bits. A varying block pays one comparison for this.
    """
    if _is_constant(env):
        return _constant_pipeline(env.item(0), env.size, g, a_sat, idq, params)
    _, t1, t2, t3, t4 = workspace(env.size)
    # a ufunc's third positional argument is its out row: an ``out=``
    # keyword costs about 0.25 us more per call, which a 64-sample CW block
    # feels (np.maximum takes only the keyword)
    aout = rapp(np.multiply(g, env, t1), a_sat, params.smoothness)
    ipk = np.divide(aout, params.rload, t1)
    # clipped cosine i(th) = max(0, idq + ipk*cos th); flooring ipk at idq
    # pins the arccos argument at -1 for the unclipped (ipk <= idq) and
    # zero-drive cases, so one closed form covers them: thc = pi gives
    # idc = idq, i1 = ipk. cos(thc) = x and sin(thc) = sqrt(1 - x^2) spare
    # two transcendentals per sample.
    x = np.divide(-idq, np.maximum(ipk, idq, out=t2), t2)
    thc = np.arccos(x, t3)
    sin_thc = np.sqrt(np.subtract(1.0, np.multiply(x, x, t4), t4), t4)
    # i1 = (2*idq*sin_thc + ipk*(thc + sin_thc*x)) / pi and
    # idc = (idq*thc + ipk*sin_thc) / pi share the four rows: each product
    # overwrites an operand at its last use
    i1 = np.multiply(ipk, np.add(thc, np.multiply(sin_thc, x, t2), t2), t2)
    idc = np.add(np.multiply(idq, thc, t3), np.multiply(ipk, sin_thc, t1), t3)
    idc = np.divide(idc, np.pi, t3)
    i1 = np.divide(np.add(np.multiply(2.0 * idq, sin_thc, t4), i1, t2),
                   np.pi, t2)
    # shape = 1 - beta*rp / (1 + c*rp), rp = (aout/a_sat)^p; the in-place
    # power takes the same scalar-exponent path as ``r ** p``
    rp = np.divide(aout, a_sat, t1)
    rp **= params.shape_exp
    shape = np.multiply(params.shape_beta, rp, t4)
    shape = np.divide(shape,
                      np.add(1.0, np.multiply(params.shape_sat, rp, t1), t1),
                      t4)
    shape = np.subtract(1.0, shape, t4)
    # the products fill rows 1-3, adjacent rows of the workspace array
    np.multiply(aout, aout, t1)
    np.multiply(aout, i1, t2)
    np.multiply(idc, shape, t3)
    return (aout, *np.add.reduce(t1.base[1:4], axis=1).tolist())
