import types

import kerneltri


def test_all_names_are_non_module_attributes():
    assert {"check_increasing_spectrum", "verify_certificate"} <= set(kerneltri.__all__)
    for name in kerneltri.__all__:
        assert not isinstance(getattr(kerneltri, name), types.ModuleType), name
