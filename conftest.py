"""Pytest hooks shared by every test directory."""

import os
import resource
from pathlib import Path

import numpy
import scipy

from ripsharp import sdp


def _blas_settings() -> str:
    # Timings and rounding-level results depend on the OpenBLAS thread
    # count, which is fixed when the library loads, and on the LAPACK
    # build the solver loaded; every log shows both.
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    return (f"OPENBLAS_NUM_THREADS={threads}, numpy {numpy.__version__}, scipy {scipy.__version__},"
            f" LAPACK {sdp.lapack.__file__}")


def pytest_report_header(config):
    return _blas_settings()


def pytest_terminal_summary(terminalreporter, config):
    # -q drops the header, so a quiet log shows the settings at its end.
    # The session's peak RSS (ru_maxrss is in KiB on Linux) goes next to
    # them, so a log shows a memory regression; subprocesses are not counted.
    # So does the line count of the library's source, as wc -l counts it,
    # so a log shows the source against its line budget.
    if config.get_verbosity() < 0:
        terminalreporter.write_line(_blas_settings())
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    src = Path(__file__).parent / "src"
    lines = sum(p.read_bytes().count(b"\n") for p in src.rglob("*.py"))
    terminalreporter.write_line(f"peak RSS of this session: {peak:.0f} MiB; src/ has {lines} lines")
