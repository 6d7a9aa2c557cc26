"""Cold set-up of one workload: ``import gnorm`` plus the build of every
section (and dual view) its timed phase uses.

This module imports only the standard library at load time, so that the
clock can start before numpy and gnorm are imported.  Run as a script it
times one fresh process and prints the seconds and the speed calibration
factor (calibration.py) measured right after:

    python3 perfbench/setup_cost.py norms-large
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("norms-small", "norms-large", "decisions")


def use_checkout_gnorm():
    """Put this checkout's ``src`` first on the import path; refuse to run
    against any other copy of gnorm."""
    if not (SRC / "gnorm" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: gnorm sources not found under {SRC}")
    sys.path.insert(0, str(SRC))


def import_gnorm():
    import gnorm
    import gnorm.cli  # not imported by the package itself

    if Path(gnorm.__file__).resolve().parent != SRC / "gnorm":
        raise SystemExit(f"perfbench: imported gnorm from {gnorm.__file__}, not {SRC}")
    return gnorm


def build_sections(gnorm, workload):
    """Every section the workload's timed phase touches, keyed by short name.

    Names are looked up on the modules at call time, so wrappers installed by
    the tracer see these builds.
    """
    s = gnorm.sections
    if workload == "norms-small":
        return {
            "ch2": s.channels_section(2, 2),
            "ch3": s.channels_section(3, 3),
            "st4": s.states_section(4),
        }
    if workload == "norms-large":
        return {
            "comb2222": s.comb_section((2, 2, 2, 2)),
            "comb2323": s.comb_section((2, 3, 2, 3)),
            "ch4": s.channels_section(4, 4),
        }
    if workload == "decisions":
        ch2 = s.channels_section(2, 2)
        return {"ch2": ch2, "ch2_dual": s.dual_section(ch2)}
    raise ValueError(f"unknown workload {workload!r}")


def cold_setup(workload):
    """Import gnorm and build the workload's sections; returns
    (seconds, gnorm module, sections)."""
    t0 = time.perf_counter()
    gnorm = import_gnorm()
    sections = build_sections(gnorm, workload)
    return time.perf_counter() - t0, gnorm, sections


if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1] not in WORKLOADS:
        raise SystemExit(f"usage: setup_cost.py {{{','.join(WORKLOADS)}}}")
    use_checkout_gnorm()
    seconds, _, _ = cold_setup(sys.argv[1])
    import calibration

    print(repr(seconds), repr(calibration.Kernel().factor()))
