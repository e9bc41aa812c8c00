"""Small dense linear-algebra helpers used across modules.

The exponentials take Hermitian generators only (one eigendecomposition
path) and do not check: ``as_hermitian`` does, at the public boundary of
``decolab.expansion``; the oracle's Hamiltonians are Hermitian by construction.
"""

import numpy as np

from .errors import ValidationError, require_finite

HERMITIAN_TOL = 1e-12


def as_hermitian(a, name="operator"):
    """Coerce one matrix or a stack (..., d, d) to complex, validating each.

    Each must be square, finite and Hermitian to HERMITIAN_TOL relative to
    max(1, its largest entry); otherwise ValidationError is raised.
    """
    try:
        m = np.asarray(a, dtype=complex)
    except (TypeError, ValueError) as exc:
        msg = f"{name} is not an array of equal-shape matrices"
        raise ValidationError(msg) from exc
    if m.ndim < 2 or m.shape[-1] != m.shape[-2] or m.shape[-1] == 0:
        raise ValidationError(f"{name} must be square matrices, got shape {m.shape}")
    require_finite(**{name: m})
    scale = np.maximum(1.0, np.abs(m).max(axis=(-2, -1)))
    skew = np.abs(m - np.swapaxes(m, -1, -2).conj()).max(axis=(-2, -1))
    if np.any(skew > HERMITIAN_TOL * scale):
        raise ValidationError(f"{name} must be Hermitian")
    return m


def require_same_dim(*mats):
    dims = {m.shape[0] for m in mats}
    if len(dims) != 1:
        raise ValidationError(f"operator dimensions differ: {sorted(dims)}")


def expm_phase(h, factor):
    """exp(1j * factor * h) for one Hermitian h; unitary up to roundoff."""
    w, v = np.linalg.eigh(np.asarray(h, dtype=complex))
    return (v * np.exp(1j * factor * w)) @ v.conj().T


def expm_phase_stack(hs, factor):
    """Batched expm_phase for a stack (n, d, d) of Hermitian matrices."""
    w, v = np.linalg.eigh(hs)
    phases = np.exp(1j * factor * w)
    return np.einsum("kij,kj,klj->kil", v, phases, v.conj())


def ordered_product(mats):
    """Product mats[-1] @ ... @ mats[0] (later factors to the left).

    Reduces adjacent pairs so a chain of n small matrices costs O(log n)
    batched matmuls instead of n sequential ones.
    """
    stack = np.asarray(mats)
    while stack.shape[0] > 1:
        n = stack.shape[0]
        if n % 2:
            head, stack = stack[-1:], stack[:-1]
        else:
            head = None
        stack = np.matmul(stack[1::2], stack[0::2])
        if head is not None:
            stack = np.concatenate([stack, head])
    return stack[0]


def spectral_norm(a):
    return float(np.linalg.norm(a, ord=2))
