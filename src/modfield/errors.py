"""Exception types shared across the package."""


class ModfieldError(Exception):
    """Base class for errors raised by this package.

    A subclass declares the fields saying where it happened as class
    attributes set to ``None``; they are taken by keyword only.
    """

    def __init__(self, msg, **where):
        super().__init__(msg)
        for name, value in where.items():
            if getattr(type(self), name, ...) is not None:
                raise TypeError(f"{type(self).__name__} has no field {name!r}")
            setattr(self, name, value)

    def at(self, msg, **where):
        """A new error like this one, saying ``msg``, with ``where`` set."""
        return type(self)(msg, **{**vars(self), **where})


class IntegrationFailureError(ModfieldError):
    """Adaptive integration could not continue (step size underflow).

    Carries ``t_reached``, the last time the solver advanced to.
    """

    t_reached = None


class DomainSamplingError(ModfieldError):
    """Rejection sampling found no state of the domain's norm shell.

    Carries ``record``, the index of the record being drawn, where known.
    """

    record = None


class StageOverflowError(ModfieldError):
    """A Runge-Kutta stage produced a non-finite value.

    Carries ``stage`` (0-based stage index) and, when raised from a
    multi-step integration, ``step_index``.
    """

    stage = step_index = None


class FixedPointError(ModfieldError):
    """The implicit-midpoint fixed point did not converge.

    Carries ``residual`` and ``iterations``; ``step_index`` is attached
    when raised from a multi-step integration.
    """

    residual = iterations = step_index = None


class UnsupportedTruncationError(ModfieldError):
    """Requested a modified-field truncation the scheme does not provide."""


class ConditioningError(ModfieldError):
    """A least-squares system was too ill-conditioned to trust."""


class TrainingDivergedError(ModfieldError):
    """Loss became non-finite during training.

    Carries ``epoch``, ``batch`` and ``record`` indices where known.
    """

    epoch = batch = record = None


class CheckpointError(ModfieldError):
    """Base class for model checkpoint load failures."""


class CheckpointFormatError(CheckpointError):
    """Checkpoint file is not valid or lacks required fields."""


class CheckpointVersionError(CheckpointError):
    """Checkpoint was written with an unsupported format version."""


class CheckpointShapeError(CheckpointError):
    """Checkpoint parameter shapes are inconsistent with its metadata."""
