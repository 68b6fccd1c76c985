"""Running the package's programs in a fresh interpreter, from outside.

Each child is timed from spawn to exit and waited for with ``os.wait4``,
which also gives that child's own peak resident memory.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


@dataclass(frozen=True)
class Finished:
    wall_s: float
    peak_rss_mb: float
    exit_code: int
    stdout: str


def cli_command(config: str, seed: int, out_dir: str) -> list[str]:
    return ["python3", "-m", "mmwchan.cli", "simulate-capacity",
            "--config", config, "--seed", str(seed), "--out", out_dir]


def setup_command(config: str | None) -> list[str]:
    return ["python3", "perfbench/job.py", "setup"] + ([] if config is None else ["--config", config])


class Runner:
    """Runs children from the checkout root with ``src`` on their path;
    their standard streams go to files in ``work_dir``."""

    def __init__(self, work_dir: str):
        self.work_dir = work_dir
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = SRC + (os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else "")

    def run(self, cmd: list[str]) -> Finished:
        out_path = os.path.join(self.work_dir, "child.out")
        err_path = os.path.join(self.work_dir, "child.err")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            child = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=out, stderr=err)
            _, status, usage = os.wait4(child.pid, 0)
            wall = time.perf_counter() - t0
        child.returncode = code = os.waitstatus_to_exitcode(status)
        with open(out_path, "r", encoding="utf-8", errors="replace") as fh:
            stdout = fh.read()
        if code:
            with open(err_path, "r", encoding="utf-8", errors="replace") as fh:
                sys.stderr.write(f"{' '.join(cmd)} exited {code}: {fh.read()[-2000:]}\n")
        return Finished(wall, usage.ru_maxrss / 1024.0, code, stdout)

    def run_json(self, cmd: list[str]) -> dict:
        """Run a child that prints one JSON object; raise if it fails."""
        done = self.run(cmd)
        if done.exit_code:
            raise RuntimeError(f"{' '.join(cmd)} exited {done.exit_code}")
        return json.loads(done.stdout)
