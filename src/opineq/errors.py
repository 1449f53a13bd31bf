"""Exception types shared across the package."""


class OpineqError(Exception):
    """Base class for all errors raised by this package."""


class NotSquare(OpineqError):
    pass


class NotHermitian(OpineqError):
    pass


class NotPSD(OpineqError):
    pass


class NoConvergence(OpineqError):
    pass


class DimensionMismatch(OpineqError):
    pass


class NonFinite(OpineqError, ValueError):
    """A matrix entry is NaN or infinite; also a ValueError for older callers."""


class AlphaOutOfRange(OpineqError):
    pass


class HypothesisUnmet(OpineqError):
    """A conditional bound's hypothesis fails for the given inputs.

    Not a bug: the bound is simply inapplicable.  ``condition`` names the
    failing hypothesis so harnesses can distinguish "bound violated" from
    "hypothesis absent".
    """

    def __init__(self, condition: str, detail: str = ""):
        self.condition = condition
        super().__init__(f"hypothesis not met: {condition}" + (f" ({detail})" if detail else ""))


class IdentityMismatch(OpineqError):
    """Two routes that must agree numerically disagreed beyond tolerance."""


class InvalidSpec(OpineqError):
    pass


class UnknownSuite(OpineqError):
    pass


class MatrixFormatError(OpineqError):
    pass
