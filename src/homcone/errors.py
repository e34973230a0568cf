"""Exception types shared across the package.

A bad argument value, a malformed set spec among them, raises ``ValueError``
and an argument of the wrong type ``TypeError``; an answer beyond the float64
range raises ``OverflowError``.  The two classes here cover the failures that
have no builtin kind.
"""


class CapabilityMissing(Exception):
    """The set does not offer the requested operation: a projector, a
    recession-cone projector, a support function (the polar view's gauge),
    or psi'(0+) in closed form for an unbounded set."""


class MaxIterationsExceeded(Exception):
    """A root search (the reference bisection, Brent's method or the secular
    Newton solve) did not converge within its step budget."""
