"""What a fresh interpreter loads to import the package and to run a
capacity campaign, and what the command-line entry point does at exit.

The process pool (``concurrent.futures``, ``multiprocessing``) loads only
for a campaign with more than one worker and more than one chunk, and
``numpy.ma`` (which ``np.unique`` and ``np.quantile`` import) never loads.
``test_engine.test_worker_counts_agree_over_several_chunks`` runs the
pool; the other tests with ``num_workers`` above 1 run one chunk.

``cli.main`` registers ``gc.freeze`` with ``atexit``, once per process, so
the interpreter's finalizing collections skip the heap that numpy and the
package build at import. Importing the package leaves the GC alone, and
nothing is frozen while a run is in progress. ``cli.main`` also raises
glibc's mmap and trim thresholds once per process, so the engine's batches
reuse freed heap instead of faulting fresh pages in. Each test here runs in a
fresh interpreter, because a freeze or an ``atexit`` handler outlives the
code that made it.
"""

import os
import subprocess
import sys

import pytest

FIG5 = os.path.join(os.path.dirname(__file__), "..", "configs", "fig5.cfg")
FIG5_LABELS = ("rayleigh", "rician5dB", "rician15dB")
POOL = ("concurrent.futures", "multiprocessing")


def fresh(code):
    """Standard output of ``code`` run in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    return out.stdout


def loaded_after(code):
    """The modules of interest that ``code`` leaves in ``sys.modules``, run
    in a fresh interpreter."""
    script = f"import sys\n{code}\nprint(' '.join(m for m in {(*POOL, 'numpy.ma')!r} if m in sys.modules))"
    return fresh(script).split()


def quiet_main(argv):
    """Code that runs ``cli.main(argv)`` with its standard output discarded."""
    return (
        "import contextlib, io, mmwchan.cli\n"
        f"with contextlib.redirect_stdout(io.StringIO()):\n    assert mmwchan.cli.main({argv!r}) == 0"
    )


def fig5_argv(out_dir, drops=20):
    return ["simulate-capacity", "--config", FIG5, "--drops", str(drops), "--out", str(out_dir)]


@pytest.mark.parametrize("module", ["mmwchan", "mmwchan.cli"])
def test_import_leaves_process_pool_unloaded(module):
    assert not set(POOL) & set(loaded_after(f"import {module}"))


def test_simulate_capacity_loads_neither_pool_nor_numpy_ma(tmp_path):
    assert loaded_after(quiet_main(fig5_argv(tmp_path))) == []
    assert sorted(os.listdir(tmp_path)) == sorted(
        f"{kind}_{label}.csv" for kind in ("capacity", "cdf") for label in FIG5_LABELS
    )


def test_heap_is_frozen_after_main_at_exit(tmp_path):
    # atexit handlers run last in, first out: a probe registered before main
    # runs after main's handler
    code = (
        "import atexit, gc\n"
        "atexit.register(lambda: print('frozen at exit:', gc.get_freeze_count() > 0))\n"
        f"{quiet_main(fig5_argv(tmp_path))}\n"
        "print('frozen after main:', gc.get_freeze_count() > 0)"
    )
    assert fresh(code).splitlines() == ["frozen after main: False", "frozen at exit: True"]


def test_main_registers_one_exit_handler_however_often_it_runs(tmp_path):
    # a counting stand-in for gc.freeze, in place before main registers it
    calls = "\n".join(quiet_main(fig5_argv(tmp_path / str(i), drops=2)) for i in range(3))
    code = (
        "import gc\nfreeze = gc.freeze\n"
        "def counted():\n    print('freeze')\n    freeze()\n"
        "gc.freeze = counted\n"
        f"{calls}"
    )
    assert fresh(code).splitlines() == ["freeze"]


def test_main_sets_malloc_thresholds_once(tmp_path):
    # a recording stand-in for the C library, in place before main runs
    calls = "\n".join(quiet_main(fig5_argv(tmp_path / str(i), drops=2)) for i in range(3))
    code = (
        "import ctypes, mmwchan.cli\n"
        "print(mmwchan.cli._keep_freed_memory.cache_info().currsize)\n"
        "made = []\n"
        "class Libc:\n"
        "    def __init__(self, name):\n"
        "        self.mallopt = lambda *args: made.append(args)\n"
        "ctypes.CDLL = Libc\n"
        f"{calls}\n"
        "print(made)"
    )
    assert fresh(code).splitlines() == ["0", str([(-3, 32 << 20), (-1, 256 << 20)])]


def test_import_leaves_gc_unfrozen():
    assert fresh("import gc, mmwchan.cli\nprint(gc.get_freeze_count(), gc.isenabled())").split() == ["0", "True"]


def test_module_run_writes_its_summary_through_a_pipe(tmp_path):
    out = subprocess.run(
        [sys.executable, "-m", "mmwchan.cli", *fig5_argv(tmp_path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, check=True,
    ).stdout
    summaries = [line.split(":")[0] for line in out.splitlines() if ": median=" in line]
    assert summaries == list(FIG5_LABELS)
