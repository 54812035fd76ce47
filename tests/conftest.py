import contextlib
import signal

import pytest

from dforge.fields import field_make
from dforge.poly import PolyRing
from dforge.drinfeld import rank1_universal
from dforge.tate import tate_lattice, tate_module


@pytest.fixture(scope="session")
def F3():
    return field_make(3, 1, 1)


@pytest.fixture(scope="session")
def F9():
    return field_make(3, 1, 2)


@pytest.fixture(scope="session")
def A(F3):
    return PolyRing(F3)


@pytest.fixture(scope="session")
def T(A):
    return A.gen()


@pytest.fixture(scope="session")
def uni_T(F3, T):
    return rank1_universal(F3, T)


@pytest.fixture(scope="session")
def tate_T(uni_T):
    """The (q=3, f=T) Tate expansion at N=9, shared by many tests."""
    L = tate_lattice(uni_T, N=9)
    return tate_module(L, 9)


@pytest.fixture
def deadline():
    """deadline(s) is a context that raises TimeoutError after s seconds
    (SIGALRM), so a call that never returns fails instead of hanging."""
    @contextlib.contextmanager
    def guard(seconds):
        def expire(signum, frame):
            raise TimeoutError("still running after %d s" % seconds)
        old = signal.signal(signal.SIGALRM, expire)
        signal.alarm(seconds)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, old)
    return guard
