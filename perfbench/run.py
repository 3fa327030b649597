#!/usr/bin/env python3
"""Builds the benchmark from source and runs one measurement.

    python3 perfbench/run.py --workload <steady_grid|full_sim_grid|sweep_service>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The libraries under src/ and the
benchmark programs are built with CMake into $CARGO_TARGET_DIR (default
.bench_build) at the checkout root; scratch files live under .bench_run
there and are removed by the run. The last line of standard output is
the benchmark's JSON result; build output goes to standard error.
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Build plus the slowest run stay well inside the 180 s a run may take
# once built; a hung run is killed with everything it started.
RUN_TIMEOUT_S = 170


def build(build_dir: Path) -> None:
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(build_dir)],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "-j", "4",
         "--target", "perfbench", "perfbench_selftest"],
        stdout=sys.stderr, check=True)
    subprocess.run([str(build_dir / "perfbench_selftest")],
                   stdout=sys.stderr, check=True)


def main() -> int:
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        print("perfbench: no library sources next to the benchmark "
              f"({ROOT / 'src'})", file=sys.stderr)
        return 2
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2

    # The simulator reads REPRO_* switches from the environment
    # (tracing, analysis, fast-forward opt-out, faults); none may leak
    # into a measurement.
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    # Relative scratch paths keep the daemon's Unix socket path short
    # however deep the checkout lies.
    cmd = [str(build_dir / "perfbench"), *sys.argv[1:],
           "--scratch-root", ".bench_run",
           "--golden", "tests/golden/trace_digests.txt"]
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out; killing it", file=sys.stderr)
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        code = 1
    try:
        (ROOT / ".bench_run").rmdir()  # only when the run left it empty
    except OSError:
        pass
    return code


if __name__ == "__main__":
    sys.exit(main())
