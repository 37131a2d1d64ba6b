"""Exception hierarchy shared by the library and the command line tool.

Each class carries the process exit code the CLI maps it to; the message
is all an error holds, and it names the input that caused it.
"""


class NvGslacError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ValidationError(NvGslacError, ValueError):
    """Invalid argument or configuration value."""

    exit_code = 2


class ParseError(NvGslacError, ValueError):
    """Malformed input file."""

    exit_code = 3


class ConvergenceError(NvGslacError, RuntimeError):
    """No optimizer search converged."""

    exit_code = 4


class ResourceLimitError(NvGslacError, RuntimeError):
    """A configured resource cap (matrix dimension, memory) would be exceeded."""

    exit_code = 5
