import os
import subprocess
import sys

import mg_spectra


def test_public_names_resolve():
    for name in mg_spectra.__all__:
        assert hasattr(mg_spectra, name), name


def test_import_leaves_scipy_fft_and_linalg_unloaded():
    # scipy.fft loads with the first NonlinearSolver and scipy.linalg with
    # the first oracle call, so a CLI run of a root table pays for neither
    code = ("import sys, mg_spectra.cli; "
            "print([m for m in ('scipy.fft', 'scipy.linalg') "
            "if m in sys.modules])")
    src = os.path.dirname(os.path.dirname(mg_spectra.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "[]"
