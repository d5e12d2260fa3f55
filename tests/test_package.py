import mg_spectra


def test_public_names_resolve():
    for name in mg_spectra.__all__:
        assert hasattr(mg_spectra, name), name
