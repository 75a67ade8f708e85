"""Semicontraction certificates for averaging systems x(k+1) = A(k) x(k)
and Markov distribution dynamics pi(k+1) = A^T pi(k).

A certificate's rate is the exact induced seminorm of the step operator in
the declared weight, so the trajectory bound

    seminorm(x(k)) <= rate^k * seminorm(x(0))

is a theorem about the reported numbers, not an estimate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .linalg import StochasticMatrix, _stochastic_stack, as_pnorm, as_vector, dominant_pair
from .seminorm import SeminormWeight, _reduced_seminorms, induced_seminorm, vector_seminorm

BOUND_SLACK = 1e-10


@dataclass
class Certificate:
    rate: float
    p: object
    weight: SeminormWeight
    per_step: list
    contracting: bool
    theorem_route: str


def as_sequence(matrices):
    """Validate a nonempty uniform-dimension sequence of stochastic matrices.

    Elements that are already `StochasticMatrix` pass through.  The others
    are checked as one (K, n, n) stack by `_stochastic_stack`, and each is
    wrapped without a second check, with the bits and flags of its own
    `StochasticMatrix`.  When they do not form such a stack (ragged input,
    mixed dimensions) or the stack fails a check, every element is
    validated in turn, so the first failing one raises its own error, and
    valid matrices of different sizes raise "sequence mixes matrix
    dimensions".
    """
    items = list(matrices)
    if not items:
        raise PreconditionError("matrix sequence is empty")
    raw = [i for i, m in enumerate(items) if not isinstance(m, StochasticMatrix)]
    try:
        stack = np.asarray([items[i] for i in raw], dtype=float)
        checked = zip(raw, *_stochastic_stack(stack)) if stack.ndim == 3 else None
    except (ValueError, TypeError, PreconditionError):
        checked = None
    if checked is None:
        seq = [StochasticMatrix.of(m) for m in items]
    else:
        seq = list(items)
        for i, *flags in checked:
            seq[i] = StochasticMatrix._checked(*flags)
    n = seq[0].n
    if any(m.n != n for m in seq):
        raise PreconditionError("sequence mixes matrix dimensions")
    return seq


def certify_averaging(matrices, p):
    """Contraction certificate in the agreement-weighted l_p seminorm.

    per_step[k] is the exact seminorm of A(k) restricted to the disagreement
    subspace; the max is a sup over the finite family.  After `as_sequence`
    has validated every step, the whole sequence is evaluated in one call
    that stacks it chunk by chunk, and each value has the bits of its own
    `induced_seminorm` call.
    """
    seq = as_sequence(matrices)
    n = seq[0].n
    weight = SeminormWeight.agreement(n)
    per_step = _reduced_seminorms([m.matrix for m in seq], weight, as_pnorm(p)).tolist()
    rate = max(per_step)
    return Certificate(
        rate=rate,
        p=p,
        weight=weight,
        per_step=per_step,
        contracting=bool(rate < 1.0),
        theorem_route="agreement-seminorm submultiplicativity",
    )


def _check_trajectory(states, cert, p):
    """Seminorms of the states x(0), x(1), ... in the certificate's weight,
    and whether each stays within rate^k times the first."""
    seminorms = [vector_seminorm(x, cert.weight, p) for x in states]
    ok = not any(s > cert.rate ** k * seminorms[0] + BOUND_SLACK
                 for k, s in enumerate(seminorms[1:], start=1))
    return {
        "trajectory_seminorms": [float(s) for s in seminorms],
        "bound_satisfied": ok,
        "certificate": cert,
    }


def simulate_and_check(matrices, x0, p):
    """Iterate the averaging system and verify the certificate bound on the way."""
    seq = as_sequence(matrices)
    x = as_vector(x0, "initial state")
    if len(x) != seq[0].n:
        raise PreconditionError(f"initial state length {len(x)} does not match n={seq[0].n}")
    cert = certify_averaging(seq, p)
    states = [x]
    for m in seq:
        states.append(m.matrix @ states[-1])
    return _check_trajectory(states, cert, p)


def certify_markov(A, p):
    """Contraction certificate for pi(k+1) = A^T pi(k) in the P_w-weighted
    l_p seminorm, w the stationary distribution.

    The rate is the exact seminorm of A^T on the subspace orthogonal to w."""
    A = StochasticMatrix.of(A, "markov certificate")
    _, w = dominant_pair(A)
    weight = SeminormWeight.orthogonal(w)
    rate = induced_seminorm(A.matrix.T, weight, p)
    return Certificate(
        rate=float(rate),
        p=p,
        weight=weight,
        per_step=[float(rate)],
        contracting=bool(rate < 1.0),
        theorem_route="stationary-projector seminorm of the distribution update",
    )
