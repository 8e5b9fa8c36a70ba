"""Set-up probe: one fresh interpreter, timed by its parent.

Usage: python3 perfbench/probe.py {import,invert} [--grid]

It imports sivodmr from the checkout's ``src``; in ``invert`` mode it also
makes the first inversion, which builds the cold inversion grid.  It then
prints ``ready``: the parent's
time from spawning it to that line is one ``setup_s`` sample.  With
``--grid`` it afterwards builds the grid if it has not yet, timing the
grid-sized ``transition_table`` call, and prints ``{"grid_s": ...}``.
"""

import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    mode = sys.argv[1]
    sys.path.insert(0, str(SRC))
    import sivodmr
    from sivodmr import inversion

    if Path(sivodmr.__file__).resolve().parent != SRC / "sivodmr":
        print(f"sivodmr imported from {sivodmr.__file__}, not {SRC}", file=sys.stderr)
        return 2
    grid_s = []
    table = inversion.transition_table
    grid_size = inversion.GRID_N_B * inversion.GRID_N_THETA

    def timed_table(b0_t, theta_rad, *args, **kwargs):
        t0 = time.perf_counter()
        out = table(b0_t, theta_rad, *args, **kwargs)
        if len(b0_t) == grid_size:
            grid_s.append(time.perf_counter() - t0)
        return out

    inversion.transition_table = timed_table
    # 60 G along the c-axis: lines 98.148 and 238.148 MHz
    warm = (98.148e6, 238.148e6)
    if mode == "invert":
        sivodmr.invert_field(*warm)
    print("ready", flush=True)
    if "--grid" in sys.argv:
        if not grid_s:
            sivodmr.invert_field(*warm)
        print('{"grid_s": %r}' % grid_s[0], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
