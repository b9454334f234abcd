"""Reference implementations that only the tests use.

Each one is an independent route to a quantity the package computes
another way; none sits on a production path.
"""

import numpy as np

from bellbound.hvbound import qm_mean
from bellbound.specfun import assoc_laguerre_seq


def laguerre_sum(x, y, n_terms):
    """Partial sum over n < n_terms of y^n / n! * L_n(x).

    Convergence oracle for the closed form J0(2 sqrt(x y)) e^y.
    """
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    coef = np.cumprod(np.concatenate(([1.0], y / np.arange(1.0, n_terms))))
    return float(coef @ assoc_laguerre_seq(n_terms - 1, 0, x))


def commuting_joint_distribution(rho, families, seed=0):
    """Joint outcome distribution of commuting projective measurements.

    families is a sequence of projector lists, each resolving the identity.
    A random hermitian combination of all projectors is diagonalized to find
    the common eigenbasis; if any projector fails to be diagonal there the
    families do not commute and no joint distribution exists.
    """
    if not families or any(len(f) == 0 for f in families):
        raise ValueError("families must be non-empty lists of projectors")
    dim = families[0][0].entries.shape[0]
    for fam in families:
        total = sum(p.entries for p in fam)
        if np.max(np.abs(total - np.eye(dim))) > 1e-10:
            raise ValueError("family does not resolve the identity")
    flat = [p for fam in families for p in fam]
    rng = np.random.default_rng(seed)
    for _ in range(4):
        combo = sum(rng.uniform(0.5, 1.5) * p.entries for p in flat)
        _, basis = np.linalg.eigh(combo)
        rotated = [basis.conj().T @ p.entries @ basis for p in flat]
        off = max(np.max(np.abs(r - np.diag(np.diag(r)))) for r in rotated)
        if off < 1e-10:
            break
    else:
        raise ValueError("projector families do not commute")
    weights = np.real(np.diag(basis.conj().T @ rho.entries @ basis))
    indicators = [np.real(np.diag(r)).round().astype(int) for r in rotated]
    shape = tuple(len(f) for f in families)
    joint = np.zeros(shape)
    offsets = np.cumsum([0] + [len(f) for f in families])[:-1]
    for b in range(dim):
        idx = []
        for fi, fam in enumerate(families):
            hits = [k for k in range(len(fam))
                    if indicators[offsets[fi] + k][b] == 1]
            if len(hits) != 1:
                raise ValueError("basis state not classified by a family")
            idx.append(hits[0])
        joint[tuple(idx)] += weights[b]
    for fi, fam in enumerate(families):
        margin = joint.sum(axis=tuple(k for k in range(len(families)) if k != fi))
        direct = np.array([qm_mean(rho, p) for p in fam])
        if np.max(np.abs(margin - direct)) > 1e-10:
            raise ValueError("joint distribution fails to reproduce a margin")
    return joint
