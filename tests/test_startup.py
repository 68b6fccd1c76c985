"""What a fresh interpreter loads to import the package and to run a
capacity campaign.

The process pool (``concurrent.futures``, ``multiprocessing``) loads only
for a campaign with more than one worker and more than one chunk, and
``numpy.ma`` (which ``np.unique`` and ``np.quantile`` import) never loads.
The tests with ``num_workers`` of 2 or 3 in ``test_engine``,
``test_capacity``, ``test_cli`` and ``test_acceptance`` run the pool.
"""

import os
import subprocess
import sys

import pytest

FIG5 = os.path.join(os.path.dirname(__file__), "..", "configs", "fig5.cfg")
POOL = ("concurrent.futures", "multiprocessing")


def loaded_after(code):
    """The modules of interest that ``code`` leaves in ``sys.modules``, run
    in a fresh interpreter."""
    script = f"import sys\n{code}\nprint(' '.join(m for m in {(*POOL, 'numpy.ma')!r} if m in sys.modules))"
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True)
    return out.stdout.split()


@pytest.mark.parametrize("module", ["mmwchan", "mmwchan.cli"])
def test_import_leaves_process_pool_unloaded(module):
    assert not set(POOL) & set(loaded_after(f"import {module}"))


def test_simulate_capacity_loads_neither_pool_nor_numpy_ma(tmp_path):
    argv = ["simulate-capacity", "--config", FIG5, "--drops", "20", "--out", str(tmp_path)]
    code = f"import contextlib, io, mmwchan.cli\nwith contextlib.redirect_stdout(io.StringIO()):\n    assert mmwchan.cli.main({argv!r}) == 0"
    assert loaded_after(code) == []
    assert sorted(os.listdir(tmp_path)) == sorted(
        f"{kind}_{label}.csv" for kind in ("capacity", "cdf") for label in ("rayleigh", "rician5dB", "rician15dB")
    )
