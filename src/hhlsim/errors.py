"""Exception types shared across the simulator and benchmark harness."""


class HhlSimError(Exception):
    """Base class for all hhlsim errors."""


class NonHermitian(HhlSimError):
    """Matrix fails the Hermitian symmetry check."""

    def __init__(self, max_asymmetry: float):
        self.max_asymmetry = max_asymmetry
        super().__init__(f"matrix is not Hermitian (max |A - A†| = {max_asymmetry:.3e})")


class SingularMatrix(HhlSimError):
    """Matrix is singular or numerically indistinguishable from singular."""


class IndefiniteMatrix(HhlSimError):
    """Matrix has non-positive eigenvalues; the pipeline only handles positive-definite systems."""


class NonPowerOfTwoDimension(HhlSimError):
    """Matrix dimension is not a power of two, so it cannot sit on a qubit register."""


class NonUnitary(HhlSimError):
    """Gate matrix fails the unitarity check."""


class IndexOverlap(HhlSimError):
    """Target and control qubit lists overlap or repeat indices."""


class DimensionMismatch(HhlSimError):
    """Operands have incompatible dimensions."""


class RegisterTooLarge(HhlSimError):
    """Requested register layout exceeds the amplitude budget."""


class ZeroVector(HhlSimError):
    """Vector with zero norm where a normalizable state is required."""


class NormalizationFailure(HhlSimError):
    """Block encoding could not be normalized (I - (A/alpha)^2 not PSD)."""


class TruncationInsufficient(HhlSimError):
    """Taylor series truncation bound exceeds the requested tolerance."""


class ZeroEigenvalueBin(HhlSimError):
    """Clock bin 0 is populated, signalling a singular or mis-scaled problem."""


class PostSelectionImpossible(HhlSimError):
    """Ancilla success probability is too small to post-select on."""


class InfeasibleSpec(HhlSimError):
    """Matrix family specification cannot be satisfied."""


class MissingColumn(HhlSimError):
    """CSV input lacks a required column."""

    def __init__(self, column: str, path: str = ""):
        self.column = column
        where = f" in {path}" if path else ""
        super().__init__(f"missing required CSV column '{column}'{where}")


class EmptyCsv(HhlSimError):
    """CSV input contains no data rows."""
