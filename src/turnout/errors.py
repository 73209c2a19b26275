"""Exception hierarchy, one class per CLI exit code.

``UsageError`` (exit 1), a ``ValueError``, is a bad argument; what a user-supplied file can
trigger is an ``InputError`` (exit 2, like ``OSError``).  Anything else is a bug (exit 3).
"""


class UsageError(ValueError):
    """A bad argument, flag or flag combination."""


class InputError(Exception):
    """Invalid user-supplied content (schema, data, matrix, or model file)."""


class SchemaError(InputError):
    """Schema document violates the grammar or a schema invariant."""


class DataError(InputError):
    """Data file content cannot be mapped onto the schema."""


class ModelFileError(InputError):
    """Model document is malformed, truncated, or has an unsupported version."""


class SchemaMismatchError(InputError):
    """Prediction input does not match the schema the model was trained on."""

