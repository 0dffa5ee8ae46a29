"""Dense doubled-space reference for the factorized GNS simulator.

``weylscale.fock`` never forms a matrix on the doubled axis
``(cutoff+1)^(2*modes)``.  The tests check its factorized results against the
dense matrices built here from the package's own per-mode pieces
(``fock._slot_pair``, ``fock._ladder_pair`` and ``GnsModel.slot_amplitudes``).
Nothing here is capped, so keep the models small.
"""

from functools import reduce

import numpy as np

from weylscale import fock


def weyl_operator(model, f):
    """pi(W_f) = W(T1 f) (x) W(J T2 f) as one doubled matrix."""
    return np.kron(*fock._slot_pair(model, model.slot_amplitudes(f)))


def commutant_weyl_operator(model, f):
    """The swapped-slot matrix that commutes with every weyl_operator."""
    first, second = fock._slot_pair(model, model.slot_amplitudes(f))
    return np.kron(second, first)


def reliable_block(model):
    """Doubled-space indices with both slots in fock._reliable_slot."""
    slot = fock._reliable_slot(model)
    return (slot[:, None] * model.slot_dimension + slot[None, :]).ravel()


def annihilation(model, f):
    """Araki-Woods a(f) = a(T1 f) (x) I + I (x) a*(J T2 f), antilinear in f.

    One Kronecker sum over the first slot's modes, then the second's:
    ``sqrt(2) i conj(alpha_k) a`` and ``-sqrt(2) i beta_k a*`` with ``alpha``
    and ``beta`` the slot amplitudes of pi(W_f).
    """
    first, second = model.slot_amplitudes(f)
    _, a = fock._ladder_pair(model.cutoff)
    terms = [np.sqrt(2) * 1j * np.conj(alpha) * a for alpha in first]
    terms += [-np.sqrt(2) * 1j * beta * a.T for beta in second]
    eyes = [np.eye(a.shape[0], dtype=complex)] * len(terms)
    return sum(reduce(np.kron, eyes[:k] + [m] + eyes[k + 1 :]) for k, m in enumerate(terms))


def creation(model, f):
    """a*(f), the adjoint of annihilation."""
    return annihilation(model, f).conj().T


def field_operator(model, f):
    """Phi(f) = (a(f) + a*(f)) / sqrt(2), the generator of t -> pi(W_{t f})."""
    a = annihilation(model, f)
    return (a + a.conj().T) / np.sqrt(2)
