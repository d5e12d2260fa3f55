"""Hypothesis fuzz of the command line: every drawn config of the cheap
experiments either runs (exit 0 or 1) or is a usage error (exit 2)."""

import json
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from mg_spectra import cli

_SMALL = st.integers(1, 4)
_POSITIVE = st.floats(0.25, 4.0)
# j_list entries: mostly perfect squares, sometimes not (a usage error)
_J = st.one_of(st.integers(1, 6).map(lambda k: k * k), st.integers(1, 36))

_PARAMS = {
    # values^4 modes are solved, so the lists stay short
    "sigma-table": st.fixed_dictionaries(
        {"values": st.lists(_SMALL, min_size=1, max_size=2)},
        optional={"omega": _POSITIVE, "mu": _POSITIVE}),
    "oracle-xcheck": st.fixed_dictionaries(
        {"values": st.lists(_SMALL, min_size=1, max_size=1),
         "kappas": st.lists(st.sampled_from([0.0, 1e-3, 1e-2, 10.0]),
                            min_size=1, max_size=2),
         "P": st.integers(4, 48)}),
    "illposed-scaling": st.fixed_dictionaries(
        {"j_list": st.lists(_J, min_size=1, max_size=3)},
        optional={"a": _POSITIVE, "m": st.integers(1, 3)}),
    # kappa reaches 10, where no pair of the box has a root: the sweep
    # bisects nothing and the runner refuses the box
    "diffusive-sweep": st.fixed_dictionaries(
        {"kappa": st.one_of(st.sampled_from([1e-3, 3e-3, 1e-2]),
                            st.floats(1e-3, 10.0)),
         "k1_max": st.integers(1, 12), "k2_max": st.integers(1, 6)},
        optional={"a": _POSITIVE, "m": st.integers(1, 3)}),
}


@pytest.mark.parametrize("name", sorted(_PARAMS))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_cli_exits_with_a_status_and_nothing_else(name, data):
    params = data.draw(_PARAMS[name])
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "c.json")
        with open(cfg, "w") as fh:
            json.dump({"params": params}, fh)
        try:
            rc = cli.main([name, "--config", cfg,
                           "--out", os.path.join(tmp, "out")])
        except SystemExit as exc:
            rc = exc.code
    assert rc in (0, 1, 2)
