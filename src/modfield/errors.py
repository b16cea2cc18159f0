"""Exception types shared across the package."""


class ModfieldError(Exception):
    """Base class for errors raised by this package."""


class IntegrationFailureError(ModfieldError):
    """Adaptive integration could not continue (step size underflow).

    Carries ``t_reached``, the last time the solver advanced to.
    """

    def __init__(self, msg, t_reached=None):
        super().__init__(msg)
        self.t_reached = t_reached


class DomainSamplingError(ModfieldError):
    """Rejection sampling found no state of the domain's norm shell.

    Carries ``record``, the index of the record being drawn, where known.
    """

    def __init__(self, msg, record=None):
        super().__init__(msg)
        self.record = record


class StageOverflowError(ModfieldError):
    """A Runge-Kutta stage produced a non-finite value.

    Carries ``stage`` (0-based stage index) and, when raised from a
    multi-step integration, ``step_index``.
    """

    def __init__(self, msg, stage=None, step_index=None):
        super().__init__(msg)
        self.stage = stage
        self.step_index = step_index


class FixedPointError(ModfieldError):
    """The implicit-midpoint fixed point did not converge.

    Carries ``residual`` and ``iterations``; ``step_index`` is attached
    when raised from a multi-step integration.
    """

    def __init__(self, msg, residual=None, iterations=None, step_index=None):
        super().__init__(msg)
        self.residual = residual
        self.iterations = iterations
        self.step_index = step_index


class UnsupportedTruncationError(ModfieldError):
    """Requested a modified-field truncation the scheme does not provide."""


class ConditioningError(ModfieldError):
    """A least-squares system was too ill-conditioned to trust."""


class TrainingDivergedError(ModfieldError):
    """Loss became non-finite during training.

    Carries ``epoch``, ``batch`` and ``record`` indices where known.
    """

    def __init__(self, msg, epoch=None, batch=None, record=None):
        super().__init__(msg)
        self.epoch = epoch
        self.batch = batch
        self.record = record


class CheckpointError(ModfieldError):
    """Base class for model checkpoint load failures."""


class CheckpointFormatError(CheckpointError):
    """Checkpoint file is not valid or lacks required fields."""


class CheckpointVersionError(CheckpointError):
    """Checkpoint was written with an unsupported format version."""


class CheckpointShapeError(CheckpointError):
    """Checkpoint parameter shapes are inconsistent with its metadata."""


class ConditioningWarning(UserWarning):
    """A fitted result came from an ill-conditioned least-squares system."""
