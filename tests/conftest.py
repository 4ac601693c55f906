import tempfile

import numpy as np
import pytest
from hypothesis.configuration import set_hypothesis_home_dir

from dotmol import LayoutGeometry, MoleculeParams, Topology

# Hypothesis caches the constants it reads from source files under
# ./.hypothesis, at collection time. The property tests keep no example
# database, so send that cache to a directory removed when the run ends.
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="dotmol-hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)


@pytest.fixture
def params():
    return MoleculeParams()


@pytest.fixture
def geometry():
    return LayoutGeometry(topology=Topology.line(2))


@pytest.fixture
def line3():
    return LayoutGeometry(topology=Topology.line(3))


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)
