"""Loaded by pytest before any test module: crashcast is imported first, so
that it pins BLAS to one thread before numpy loads, as the command line
does, even where numpy's BLAS has no run-time thread setter. In-process
runs then write the bytes a command would."""

import crashcast  # noqa: F401
