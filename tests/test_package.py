import subprocess
import sys
import types
from pathlib import Path

import kerneltri


def test_all_names_are_non_module_attributes():
    assert {"check_increasing_spectrum", "verify_certificate"} <= set(kerneltri.__all__)
    for name in kerneltri.__all__:
        assert not isinstance(getattr(kerneltri, name), types.ModuleType), name


_FOOTPRINT_CHILD = """
import sys
sys.path.insert(0, {src!r})
import numpy as np
import kerneltri, kerneltri.cli
from kerneltri import (
    build_space, check_increasing_spectrum, find_nondegenerate_cycle,
    increasing_spectrum_block_form, kernel_operator, scc_triangularize, verify_certificate,
)

DEFERRED = {{"scipy.optimize", "scipy.sparse"}}
space = build_space(0, [2, 3, 4, 5])
K = kernel_operator(space, np.array([[1, 1, 0, 0], [0, 2, 1, 0], [0, 0, 0, 1], [1, 0, 0, 3]], complex))
assert not check_increasing_spectrum(K).verdict
cert = scc_triangularize(K)
assert cert.blocks == ((0, 1, 2, 3),) and verify_certificate(K, cert).passed
T = kernel_operator(space, np.triu(np.arange(1.0, 17.0).reshape(4, 4)).astype(complex))
cert = increasing_spectrum_block_form(T)
assert len(cert.blocks) == 4 and verify_certificate(T, cert).passed
assert not DEFERRED & set(sys.modules), sorted(DEFERRED & set(sys.modules))

# the calls that need scipy.sparse still load it, and nothing loads scipy.optimize
assert find_nondegenerate_cycle(K) == (0, 1, 2, 3)
assert "scipy.sparse" in sys.modules and "scipy.optimize" not in sys.modules
"""


def test_import_and_small_checks_load_neither_scipy_sparse_nor_optimize():
    # in a fresh interpreter, since conftest.py imports scipy.sparse here
    src = str(Path(kerneltri.__file__).resolve().parent.parent)
    subprocess.run(
        [sys.executable, "-c", _FOOTPRINT_CHILD.format(src=src)], check=True, timeout=120
    )
