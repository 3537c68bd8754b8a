"""Shared fixtures: small deterministic matrices and layouts."""

from __future__ import annotations

import faulthandler
import importlib.util
import os

import numpy as np
import pytest
import scipy.sparse as sp

from repro.generators import chung_lu, grid2d, powerlaw_degree_sequence, rmat


#: CI passes ``--timeout=300`` (pytest-timeout, dev extra). Where the plugin
#: is absent that flag does not exist and a spinning loop — an FM pass with
#: a bad gain update, say — would hang the run forever, so the same
#: ceiling is armed through faulthandler instead: it dumps every thread's
#: stack and exits the process.
_HANG_CEILING_S = 300
_HANG_STDERR = pytest.StashKey[int]()


def pytest_configure(config):
    # output capture is suspended while plugins configure, so fd 2 is still
    # the terminal here; inside a test it is the capture's temp file, and a
    # dump written there would die with the process
    if importlib.util.find_spec("pytest_timeout") is None:
        config.stash[_HANG_STDERR] = os.dup(2)


def pytest_unconfigure(config):
    fd = config.stash.get(_HANG_STDERR, None)
    if fd is not None:
        del config.stash[_HANG_STDERR]
        os.close(fd)


@pytest.fixture(autouse=True)
def _hang_ceiling(request):
    fd = request.config.stash.get(_HANG_STDERR, None)
    if fd is None:
        yield
        return
    faulthandler.dump_traceback_later(_HANG_CEILING_S, exit=True, file=fd)
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()


@pytest.fixture(scope="session")
def small_rmat() -> sp.csr_matrix:
    """~1k-vertex R-MAT graph: scale-free, hubs at low ids."""
    return rmat(scale=10, edge_factor=8, seed=7)


@pytest.fixture(scope="session")
def small_grid() -> sp.csr_matrix:
    """24x24 mesh: the partitionable contrast case."""
    return grid2d(24, 24)


@pytest.fixture(scope="session")
def small_powerlaw() -> sp.csr_matrix:
    """Chung-Lu graph with gamma=2.3 tail."""
    w = powerlaw_degree_sequence(1500, gamma=2.3, mean_degree=12, max_degree=300, seed=3)
    return chung_lu(w, seed=4)


@pytest.fixture(scope="session")
def tiny_matrix() -> sp.csr_matrix:
    """Hand-written 6x6 symmetric pattern for exactness checks."""
    rows = np.array([0, 0, 1, 2, 3, 4, 1, 5])
    cols = np.array([1, 2, 3, 4, 5, 5, 4, 0])
    A = sp.coo_matrix((np.ones(8), (rows, cols)), shape=(6, 6))
    return sp.csr_matrix(A + A.T)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0)
