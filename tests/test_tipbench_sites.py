"""The repository benchmark's rebinding sites resolve in the program.

tipbench's traced run times a layer by rebinding a function, for one probe,
at the module or class that looks it up (``tipbench/layers.py``).  Its
``Probe`` reads each site as ``owner.__dict__[name]``, so a change that
renames or moves one of those functions breaks the traced run; entering a
``Probe`` on each site here fails first, with the site's name.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

TIPBENCH = str(Path(__file__).resolve().parents[1] / "tipbench")

sys.path.insert(0, TIPBENCH)
try:
    import layers
finally:
    sys.path.remove(TIPBENCH)

SITES = layers.DECOMPOSITION_SITES + layers.SERVICE_SITES


@pytest.mark.parametrize("site", SITES, ids=[f"{module}:{attribute}"
                                             for module, attribute, _ in SITES])
def test_probe_resolves_site(site):
    with layers.Probe([site]):  # KeyError when the site is gone
        pass
