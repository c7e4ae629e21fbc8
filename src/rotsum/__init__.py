"""rotsum: exact ergodic sums of BV observables over circle rotations.

Subpackages:

* ``contfrac``    -- exact continued fractions, convergents, Ostrowski digits
* ``observables`` -- zero-mean BV observables (jumps plus a slope) and
                     their Fourier data
* ``ergosum``     -- exact O(log N) ergodic-sum engines and piecewise profiles
* ``variance``    -- Fourier-side variance kernels, bounds and diagnostics
* ``sequences``   -- certified subsequence plans (growth, parity, lacunarity)
* ``stats``       -- samplers, KS instruments and the CLT experiments
* ``parallel``    -- the one fork layer: rows split across cores by their cost
* ``billiard``    -- the rectangular periodic billiard at the diagonal direction
* ``cli``         -- command-line front end
"""

__version__ = "0.1.0"

# the two base layers: no import cycles, and observables brings in numpy
from . import contfrac, observables  # noqa: F401
