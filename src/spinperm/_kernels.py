"""The sweep's numeric kernel: one level raise in numpy.

Kernels work in "code" space: bit ``p`` of a basis code is the occupation
of site ``n-1-p``, so ascending codes match ascending text labels.
``wbits[p]`` must hold the weight for raising the site stored in bit ``p``.
The raising rule itself lives in ``bits.raise_edges``; ``_raise`` scatters
its edges into the destination level.  The closing step is the raise into
level n, whose only code is ``2**n - 1``.

``apply_level`` and ``apply_closing`` are the two boundaries the sweep
calls through this module's attributes, so a caller can wrap them to time
and count each step.
"""

from __future__ import annotations

import numpy as np

from . import bits

# perfbench's environment block reads these two names.
HAVE_NUMBA = False


def kernel_name() -> str:
    return "numpy"


def _raise(src, dst, amps, wbits, fermionic):
    out = np.zeros(dst.shape[0], dtype=np.complex128)
    for p, pos, raised, odd in bits.raise_edges(src, wbits.shape[0], fermionic):
        vals = wbits[p] * amps[pos]
        if fermionic:
            vals = np.where(odd, -vals, vals)
        # targets are distinct for a fixed raised bit
        out[np.searchsorted(dst, raised)] += vals
    return out


def apply_level(src, dst, amps, wbits, fermionic: bool):
    """Raise amplitudes ``amps`` on codes ``src`` onto the codes ``dst``."""
    return _raise(src, dst, amps, wbits, fermionic)


def apply_closing(src, amps, wbits, fermionic: bool, full: int) -> complex:
    """Raise level n-1 into its single successor ``full`` and return that amplitude."""
    return complex(_raise(src, np.array([full], dtype=np.int64), amps, wbits, fermionic)[0])
