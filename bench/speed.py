"""Machine-speed reference for the end-to-end times.

On a shared 2-vCPU Xeon VM, the hardware the bounds in BENCHMARK.json were
set on, the speed of single-threaded code drifts by up to 50% within a
minute, so raw medians of two runs of the same code differ by more than
any useful bound.  A short fixed loop, run after each measured interval
(each task of a pass, each set-up probe), samples that drift at the same
moments as the work.  Its three equal parts (interpreter arithmetic, a
2-D FFT, sparse matrix-vector products) were chosen from six candidates as
the mix whose ratio to oracle and kernels passes varied least.

End-to-end times are reported as ``raw * REFERENCE_S / median(loop)``:
seconds at the machine speed at which the loop takes ``REFERENCE_S``.  One
factor per run, not per interval, because the loop tracks slow drift well
but fresh-interpreter work poorly from one second to the next.  Raw times
are recorded beside the scaled ones.  The loop uses no decolab code, so a
change to decolab cannot move it.
"""

import time
from statistics import median

# About the loop's wall time on that VM when it is quiet.
REFERENCE_S = 0.050


class Reference:
    """The fixed loop, and the intervals it is run after."""

    def __init__(self):
        # Imported here so that set-up probes, which never build a
        # Reference, import only what decolab itself imports.
        import numpy as np
        import scipy.sparse

        rng = np.random.Generator(np.random.Philox(key=0))
        self._grid = rng.random((512, 512)) + 1j * rng.random((512, 512))
        n, nnz = 20_000, 200_000
        self._sparse = scipy.sparse.csr_matrix(
            (rng.random(nnz), (rng.integers(0, n, nnz), rng.integers(0, n, nnz))), shape=(n, n)
        )
        self._vector = rng.random(n)
        self._fft2 = np.fft.fft2
        self.samples = [self.measure()]

    def measure(self):
        """Wall time of one run of the fixed loop."""
        t0 = time.perf_counter()
        x = 0
        for k in range(200_000):
            x += k * k
        for _ in range(3):
            self._fft2(self._grid)
        for _ in range(40):
            self._sparse @ self._vector
        return time.perf_counter() - t0

    def timed(self, fn, *args):
        """Run fn(*args), then the loop; return (raw wall seconds, fn's result).

        Every loop run is kept, so the loop samples the machine at the same
        moments as the work it scales.
        """
        t0 = time.perf_counter()
        result = fn(*args)
        raw = time.perf_counter() - t0
        self.samples.append(self.measure())
        return raw, result

    def factor(self):
        """Raw seconds times this are seconds at reference speed."""
        return REFERENCE_S / median(self.samples)
