"""Exception types shared across the package."""

from contextlib import contextmanager


@contextmanager
def malformed(what):
    """Turn a TypeError, IndexError or ValueError raised while reading
    ``what`` into a ValueError naming ``what``.

    Wraps only the reading of input values (JSON files, recipe descriptors),
    so a value of the wrong type, length or range is reported as invalid
    input.
    """
    try:
        yield
    except (TypeError, IndexError, ValueError) as exc:
        raise ValueError(f"malformed {what}: {exc}") from exc


class DistvarError(Exception):
    """Base class for all library errors."""


class PoleHit(DistvarError):
    """Evaluation point collides with a pole of a rational expression."""


class NotUnitaryColligation(DistvarError):
    """Block matrix [[A,B],[C,D]] fails the unitarity test."""


class NotPureRealization(DistvarError):
    """State matrix A has an eigenvalue on or outside the unit circle."""


class ResolventSingular(DistvarError):
    """I - zA is numerically singular at the requested point."""


class SpuriousFactorInDisc(DistvarError):
    """The cleared denominator of a variety polynomial vanishes on the closed disc."""


class NonCommuting(DistvarError):
    """Commutator norm exceeds tolerance."""


class NotContractive(DistvarError):
    """Operator norm exceeds 1 beyond tolerance."""


class NotPure(DistvarError):
    """Spectral radius is not strictly below 1 where pureness is required."""


class TruncationNotConverged(DistvarError):
    """A geometric truncation failed to reach its tail tolerance within the cap."""


class NoInnerSolution(DistvarError):
    """No inner symbol intertwining the pair was found: the closed-form
    construction or an alignment failed its residual or inner/pure check."""


class AnnTrivial(DistvarError):
    """The univariate annihilator is trivial, so the model space is infinite-dimensional."""


class DegenerateCluster(DistvarError):
    """Spectral clusters are too close for a conclusive tolerance-based decision."""


class ConstantSymbol(DistvarError):
    """A non-constant symbol is required."""


class DenominatorVanishes(DistvarError):
    """Rational symbol denominator vanishes on the sampled set."""
