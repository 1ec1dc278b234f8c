"""The per-sample envelope pipeline of the amplifier model, in numpy.

Block-sized temporaries go into one per-thread workspace (``workspace``): a
``(3, n)`` float64 array for the most recent block length ``n``, kept while
``n <= signalgen.CACHE_MAX_SAMPLES``, so at most 3 MiB per thread. A longer
block gets fresh rows on every call, freed with the caller's last view. Each
stage writes its result into a workspace row with the ufunc's ``out``, in
the same expression, operand order and reduction as the plain form, so the
bits are those of freshly allocated temporaries; what goes is the page
faults (and the zero-filling) of mapping new temporaries on every call.
``pa_pipeline``'s law needs five scratch rows: the workspace's three and
its own fresh complex output block, viewed as two float rows until the
output samples, written last, overwrite them. No returned array is a view
of the workspace. The model's two stages, ``pamodel.simulate`` and
``measure.measure_imd``, are its only users, one after the other.

Each block sum is one ``np.add.reduce`` over a contiguous row of per-sample
products: numpy sums a contiguous row of a 2-D reduction along its rows as
it sums the row alone (a column-wise reduction adds in another order), so
the constant path's ``(3, n)`` block reduction and the array form's 1-D
rows give the same bits. A split block's halves each reduce their part of
the rows, and one float add per sum joins them (``joined``), with the same
bits: ``halves`` splits at numpy's pairwise point.

The Rapp limiter has three forms: ``rapp`` on arrays, its one-lane steps
in ``_constant_pipeline`` and the ``math`` form ``pamodel._rapp_scalar``.
They share one saturation rule: a denominator past the float range gives
``a_sat``. ``pa_pipeline`` holds the model's overflow policy: one
``np.errstate(over="ignore")`` around both its paths, so that an envelope
or a power past the float range saturates without a warning under any
caller's error state. Its callers (``pamodel.simulate``) and its constant
path open no scope of their own, so a CW evaluation enters this one only;
every other block also enters ``rapp``'s own, once per part.

A block shorter than ``SPLIT_MIN`` with a constant envelope (every sample
has the first one's bits: a CW drive, and so every calibration anchor) is
evaluated once: its swing is one float, and its three products fill a fresh
``(3, n)`` block that the same reduction sums, so its sums are the block
form's by construction. Its correctly rounded steps (``*``, ``/``, ``+``,
``-``, ``max``, ``sqrt``) run on Python floats, where ufunc dispatch would
cost more than the arithmetic. Its three powers and ``arccos`` stay in
numpy, on one-lane arrays: numpy's SIMD ``pow`` and ``arccos`` differ from
libm's in the last bits for a few percent of arguments, and ``**`` takes
numpy's exponent-2 and exponent-0.5 fast paths, as it does for a block.

Four passes over a long block run as two halves at once through
``halves``: ``pa_pipeline``'s law with ``|x|``, the output scale and the
block sums, and ``measure.measure_imd``'s ``|x|^2`` with its sum, its noise
and window pass and its column FFT. ``SPLIT_MIN`` gives the timings. From
``SPLIT_MIN`` samples up, with more than one CPU, the calling thread runs
the first part of the rows and a worker thread the second, in slices of
the caller's workspace rows and preallocated results. Each split step works
on each leading row alone and the worker runs under the caller's
``np.geterr()``, so each sample gets the bits and error handling of one
pass. The worker is the one thread of a ``ThreadPoolExecutor`` that every
caller shares, made on the first long block (importing this module starts
none) and again in a child after ``os.fork``. It takes no part once the
interpreter shuts down: a long block in an ``atexit`` handler raises.
"""
import math
import os
import threading

import numpy as np

from .signalgen import CACHE_MAX_SAMPLES

_local = threading.local()

#: Shortest block, in samples, whose passes ``halves`` splits. A split with
#: nothing to do takes 22-33 us p50 on a 2-core VM, 13-20 us through the
#: two-lock thread that the executor replaced, which these ratios were taken
#: with. Split over serial time, median of 6 interleaved rounds, per caller
#: at 16384 / 32768 / 49152 / 65536 / 131072 samples: the law with ``|x|``
#: 1.19 / 0.77 / 0.62 / 0.58 / 0.49; ``measure_imd``'s ``|x|^2`` and sum
#: 2.09 / 1.29 / 1.07 / 0.92 / 0.66, its noise and window pass 2.38 / 1.18 /
#: 0.92 / 0.85 / 0.49 and its column FFT 1.35 / 0.88 / 0.86 / 0.74 / 0.60.
#: ``|x|^2`` still loses below 65536, so the bound stays there.
SPLIT_MIN = 65536

#: ``(pid, ThreadPoolExecutor)`` of this process's worker thread, once made.
_pool = (None, None)
_pool_lock = threading.Lock()

#: The smallest positive float, a subnormal.
_TINY = math.ulp(0.0)


def workspace(n):
    """This thread's three float64 scratch rows of length ``n``: a tuple of
    the row views of one C-ordered ``(3, n)`` array, contents undefined.

    The model's two stages alone use them: ``measure.measure_imd``, and
    ``pa_pipeline`` for ``pamodel.simulate``, with the envelope in row 0,
    then the output scale in row 1 and the law's products in rows 0 and 2.
    The rows of the most recent length are kept, and returned again for
    that length, while ``n <= CACHE_MAX_SAMPLES``; a longer ``n`` gets
    fresh rows on every call, freed with their last view.
    """
    rows = getattr(_local, "rows", ())
    if rows and rows[0].size == n:
        return rows
    rows = tuple(np.empty((3, n)))
    _local.rows = rows if n <= CACHE_MAX_SAMPLES else ()
    return rows


def _cpu_count():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _executor():
    """This process's one-thread executor; a forked child makes its own."""
    global _pool
    if _pool[0] != os.getpid():
        from concurrent.futures import ThreadPoolExecutor  # 7.7 ms to import
        with _pool_lock:
            if _pool[0] != os.getpid():
                _pool = (os.getpid(), ThreadPoolExecutor(
                    max_workers=1, thread_name_prefix="hfpa-halves"))
    return _pool[1]


def _in_errstate(err, fn, rows, args):
    """The worker's half: ``fn(*rows, *args)`` under the caller's error
    state ``err``."""
    with np.errstate(**err):
        return fn(*rows, *args)


def halves(fn, rows, *args):
    """``fn(*rows, *args)``, over the two halves of a long block at once; a
    list of the part results, one per part.

    ``rows`` are arrays of one length along their first axis, whose leading
    rows ``fn`` reads and writes independently of one another (the samples
    of 1-D rows, the columns of a 2-D view), so each gets the same bits
    either way. From ``SPLIT_MIN`` samples (``rows[0].size``) up, with more
    than one CPU and at least two leading rows, this thread runs ``fn`` on
    the first part of every row along the first axis and the process's
    worker thread on the second, under this thread's ``np.geterr()``;
    otherwise ``fn`` runs once on the whole rows and the list has one
    result. A second caller's part queues behind the first's: no pass that
    runs inside a split calls ``halves``, so no part waits on its own
    thread. The worker has finished its part, and keeps no view of the
    rows, when this returns or raises; an exception of this thread's part
    wins over the worker's.

    1-D rows split at numpy's pairwise point, ``h = n//2 - (n//2) % 8``:
    numpy sums more than 128 terms as the sum of the first ``h`` plus the
    sum of the rest, so ``joined`` of the parts' ``np.add.reduce`` has the
    bits of the whole row's. Columns split at ``n//2``.

    It has four callers: ``pa_pipeline``'s law with ``|x|`` and the block
    sums, and ``measure_imd``'s ``|x|^2`` with its sum, its noise and window
    pass and its column FFT. ``SPLIT_MIN`` gives their timings and a handoff's.
    """
    first = rows[0]
    if first.size < SPLIT_MIN or len(first) < 2 or _cpu_count() < 2:
        return [fn(*rows, *args)]
    h = len(first) // 2
    if first.ndim == 1:
        h -= h % 8
    theirs = _executor().submit(_in_errstate, np.geterr(), fn,
                                [r[h:] for r in rows], args)
    try:
        mine = fn(*[r[:h] for r in rows], *args)
    finally:
        theirs.exception()  # waits for the worker's part
    try:
        return [mine, theirs.result()]
    finally:
        del theirs  # a raised exception's traceback holds this frame


def joined(parts):
    """The sum of the part results of ``halves``: with its pairwise split
    point, the bits of one ``np.add.reduce`` over the whole rows."""
    return parts[0] if len(parts) == 1 else parts[0] + parts[1]


def rapp(u, a_sat, smooth, out):
    """Rapp soft limiter ``u / (1 + (u/a_sat)^(2s))^(1/(2s))``, ``s = smooth``.

    The model's AM/AM law on ``u = g*a_in``: monotone, slope at most ``g``
    in ``a_in``, and below ``a_sat`` up to rounding (in deep saturation,
    within about ``ln(u/a_sat)/2`` ulp of it on either side).

    ``u`` is the linearly amplified envelope, ``>= 0`` and possibly ``inf``.
    A denominator past the float range gives ``a_sat`` (the module
    docstring): one pass, in a scope of its own that ignores the overflow
    and the ``inf/inf`` at ``u = inf``, then ``a_sat`` copied over each
    ``inf`` denominator's sample. The ``out`` array of ``u``'s shape (not
    ``u`` itself) receives the result and holds the denominator on the way.
    """
    s2 = 2.0 * smooth
    with np.errstate(over="ignore", invalid="ignore"):
        den = np.divide(u, a_sat, out)
        den **= s2
        den += 1.0
        den **= 1.0 / s2
        saturated = np.isinf(den)
        a = np.divide(u, den, den)
    np.copyto(a, a_sat, where=saturated)
    return a


def _is_constant(env):
    """Whether every sample of ``env`` has the first one's bits.

    The endpoints are compared first, so a varying block nearly always pays
    one comparison; then the block as bytes against itself shifted by one
    sample: 0.72 us at 64 samples (numpy 2.10 us, memoryview 2.17 us), but
    10.2 us at 10000 and 466 us at 65535 (numpy 6.5 and 16.3 us; timeit,
    2-core host). No workload sends a long constant block to this test.
    """
    if not (env.size and env[0] == env[-1]):
        return False
    raw = env.tobytes()
    return raw[env.itemsize:] == raw[:-env.itemsize]


def _constant_pipeline(e, n, g, a_sat, idq, params):
    """The swing ``a`` and the three law sums of ``pa_pipeline`` over ``n``
    samples of level ``e``, the law evaluated once (see the module
    docstring).

    Each step keeps the array form's expression and operand order, so each
    value has the bits of every lane of the array form. It opens no
    ``errstate`` of its own: it runs under its caller's, which must ignore
    overflow, so that a denominator past the float range gives ``a_sat``,
    as in ``rapp``, with no warning. ``pa_pipeline`` opens that scope;
    any other caller has to open one too. The sums are those of a fresh
    ``(3, n)`` block.
    """
    s2 = 2.0 * params.smoothness
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
    rows = np.empty((3, n))
    rows.T[...] = (a * a, a * i1, idc * shape)
    return (a, *np.add.reduce(rows, axis=1).tolist())


def pa_pipeline(x, g, a_sat, idq, params):
    """Run the per-sample amplifier pipeline over a block's samples ``x``.

    ``g, a_sat`` come from ``pamodel.gain_and_swing``; ``params`` gives
    ``s``, ``rload`` and the shaping terms. For each envelope sample
    ``e = |x|``:

    * soft-limited output swing ``a = rapp(g*e, a_sat, s)``
    * output sample ``x * a/max(e, tiny)``, ``tiny`` the smallest subnormal:
      each sample keeps its phase
    * drain-current demand ``ipk = a / rload`` fed to the clipped-cosine
      Fourier components (DC ``idc`` and fundamental ``i1``)
    * overdrive shaping factor ``1 - beta*r^p / (1 + c*r^p)``, ``r = a/a_sat``

    Returns the output samples (fresh memory, never the workspace) and
    ``(sum(a^2), sum(a*i1), sum(idc*shape), sum(e^2))``. The rows of
    ``workspace(x.size)`` are overwritten. Besides the three workspace rows,
    the law takes two fresh rows per call, the swing ``a`` and the complex
    output block; until the output samples are written last, the output
    block serves the law as two more float scratch rows.

    The block's length alone picks its path. A block shorter than
    ``SPLIT_MIN`` takes the serial ``|x|`` and ``_is_constant``, which a
    varying block pays one comparison for. A constant one is evaluated
    once, with the bits of the block form (see the module docstring), its
    output is ``x`` times the one scale, and its ``sum(e^2)`` is ``np.dot``,
    for the calibration's bits. Every other block's four sums are one
    reduction, with no BLAS call. A block of ``SPLIT_MIN`` samples or more,
    constant or not, runs its ``|x|``, law, output scale and sums as two
    halves (``halves``; the timings are at ``SPLIT_MIN``), and ``joined``
    adds the halves' sums with the bits of one reduction.

    One ``np.errstate(over="ignore")`` covers both paths, the block sums
    included: a finite sample whose envelope, amplified envelope, power or
    square overflows saturates without a warning, under any caller's error
    state, and the other error kinds follow the caller's state. A short
    constant block enters this scope and no other; every other block also
    enters ``rapp``'s own, once per part, saturated or not.
    """
    with np.errstate(over="ignore"):
        ws = workspace(x.size)
        env = ws[0]
        long_block = x.size >= SPLIT_MIN
        if not long_block:
            np.abs(x, env)
            if _is_constant(env):
                e = env.item(0)
                a, *sums = _constant_pipeline(e, env.size, g, a_sat, idq,
                                              params)
                # numpy casts the scale to (s, +0) as it casts a row of it,
                # so each sample has the bits of the block form's
                return (np.multiply(x, a / max(e, _TINY)), *sums,
                        float(np.dot(env, env)))
        aout = np.empty(env.size)
        out = np.empty(env.size, dtype=np.complex128)
        parts = halves(_pipeline_rows, (x, out, env, aout, ws[1], ws[2]),
                       long_block, g, a_sat, idq, params)
        return (out, *joined(parts).tolist())


def _pipeline_rows(x, out, env, aout, scale, scr, with_abs, g, a_sat, idq,
                   params):
    """``pa_pipeline``'s law over rows of one span: ``|x|`` into ``env`` if
    ``with_abs``, the swing into ``aout`` and the output samples into
    ``out``, last; returns the sums of ``aout^2``, ``aout*i1``,
    ``idc*shape`` and ``env^2``.

    ``scale`` and ``scr`` are workspace rows. The law's last two scratch
    rows are ``out`` itself, viewed as two float rows of the span's length,
    until the output samples overwrite them. Each product is reduced alone,
    as a contiguous 1-D row: the bits of the row in a block reduction."""
    if with_abs:
        np.abs(x, env)
    o1, o2 = out.view(np.float64).reshape(2, -1)
    # a ufunc's third positional argument is its out row: an ``out=``
    # keyword costs about 0.25 us more per call, which a 64-sample block
    # feels (np.maximum takes only the keyword)
    rapp(np.multiply(g, env, scale), a_sat, params.smoothness, aout)
    sum_e2 = np.add.reduce(np.multiply(env, env, scale))
    # out = x * aout/env, written last. env is floored at the smallest
    # subnormal, which no nonzero env is below; a zero sample (aout = 0)
    # gets scale 0, and x * 0 the signed zeros that any scale >= 0 gives,
    # with no 0/0; those signs are part of the output, so the multiply
    # stays complex-by-float
    np.divide(aout, np.maximum(env, _TINY, out=scale), scale)
    ipk = np.divide(aout, params.rload, env)
    # clipped cosine i(th) = max(0, idq + ipk*cos th); flooring ipk at idq
    # pins the arccos argument at -1 for the unclipped (ipk <= idq) and
    # zero-drive cases, so one closed form covers them: thc = pi gives
    # idc = idq, i1 = ipk. cos_thc and sin_thc = sqrt(1 - cos_thc^2) spare
    # two transcendentals per sample.
    cos_thc = np.divide(-idq, np.maximum(ipk, idq, out=scr), scr)
    thc = np.arccos(cos_thc, o1)
    sin_thc = np.sqrt(
        np.subtract(1.0, np.multiply(cos_thc, cos_thc, o2), o2), o2)
    # i1 = (2*idq*sin_thc + ipk*(thc + sin_thc*cos_thc)) / pi and
    # idc = (idq*thc + ipk*sin_thc) / pi share the four rows: each product
    # overwrites an operand at its last use
    i1 = np.multiply(ipk, np.add(thc, np.multiply(sin_thc, cos_thc, scr), scr),
                     scr)
    idc = np.add(np.multiply(idq, thc, o1), np.multiply(ipk, sin_thc, env), o1)
    idc = np.divide(idc, np.pi, o1)
    i1 = np.divide(np.add(np.multiply(2.0 * idq, sin_thc, o2), i1, scr),
                   np.pi, scr)
    # shape = 1 - beta*rp / (1 + c*rp), rp = (aout/a_sat)^p; the in-place
    # power takes the same scalar-exponent path as ``r ** p``
    rp = np.divide(aout, a_sat, env)
    rp **= params.shape_exp
    shape = np.multiply(params.shape_beta, rp, o2)
    shape = np.divide(shape,
                      np.add(1.0, np.multiply(params.shape_sat, rp, env), env),
                      o2)
    shape = np.subtract(1.0, shape, o2)
    sums = np.array([np.add.reduce(np.multiply(aout, aout, env)),
                     np.add.reduce(np.multiply(aout, i1, scr)),
                     np.add.reduce(np.multiply(idc, shape, o1)), sum_e2])
    np.multiply(x, scale, out)
    return sums
