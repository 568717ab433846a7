"""Synthetic phase-shifting workload for the online re-adviser.

The paper's applications keep one hot set for the whole run, so a
single profile→advise pass is near-optimal. Real multi-physics and
AMR codes do not: the dominant data structure changes mid-run (Olson
et al. and Marques et al., PAPERS.md, both motivate online guidance
with exactly this). ``PhaseShift`` models the simplest such shape —
two equally hot arrays, each dominant in one *half* of the timed
span, sized so the experiment's MCDRAM budget fits one but not both:

* regime A (first half of the iterations): ``hot_red`` takes nearly
  all heap misses, ``hot_black`` is idle;
* regime B (second half): the roles swap;
* a large streaming ``backdrop`` and a static table are touched
  throughout, as low-priority filler.

A one-shot advisor sees both hot arrays with ~equal cumulative miss
counts and can promote only one of them — serving at most half the
hot traffic from MCDRAM. An online re-adviser that re-solves per
window promotes whichever array is hot *now* and pays one migration
at the shift, which is the scenario the ISSUE's acceptance criterion
measures.

The regime switch is implemented by dropping the inactive hot array
from the live set a window generates misses from (``window_live``) —
the object stays allocated (both are init-time persistent
allocations), it is simply untouched, exactly like a solver array
between solver stages.
"""

from __future__ import annotations

from repro.apps.base import (
    AccessPattern,
    AppCalibration,
    AppGeometry,
    ObjectSpec,
    PhaseSpec,
    SimApplication,
)
from repro.units import MIB


class PhaseShift(SimApplication):
    name = "phaseshift"
    title = "PhaseShift (synthetic)"
    language = "C"
    parallelism = "MPI"
    problem_size = "2 regimes x 8 iterations"
    lines_of_code = 0
    allocation_statements = "3/0/0/0/0/0/0"
    geometry = AppGeometry(ranks=64, threads_per_rank=1)
    calibration = AppCalibration(
        fom_ddr=50.0,
        ddr_time=120.0,
        memory_bound_fraction=0.6,
        fom_name="FOM",
        fom_units="Sweeps/s",
    )
    n_iterations = 16
    stream_misses = 64_000
    sampling_period = 7
    stack_miss_fraction = 0.01

    phases = (PhaseSpec("sweep", 1.0, instruction_weight=1.0),)

    objects = (
        ObjectSpec(
            name="hot_red",
            callstack=(("setup_fields", 11),),
            size=24 * MIB,
            miss_weight=0.46,
            pattern=AccessPattern("random", 1.0, reref_per_iteration=24.0),
        ),
        ObjectSpec(
            name="hot_black",
            callstack=(("setup_fields", 17),),
            size=24 * MIB,
            miss_weight=0.46,
            pattern=AccessPattern("random", 1.0, reref_per_iteration=24.0),
        ),
        ObjectSpec(
            name="backdrop",
            callstack=(("load_mesh", 5),),
            size=96 * MIB,
            miss_weight=0.06,
            pattern=AccessPattern("sequential", 0.5, reref_per_iteration=4.0),
        ),
        ObjectSpec(
            name="coeff_table",
            callstack=(),
            size=16 * MIB,
            static=True,
            miss_weight=0.02,
            pattern=AccessPattern("random", 0.8, reref_per_iteration=6.0),
        ),
    )

    @property
    def shift_time(self) -> float:
        """Wall-clock instant the hot set swaps (mid-timed-span)."""
        cal = self.calibration
        t_init_end = cal.ddr_time * self.init_fraction
        return t_init_end + (cal.ddr_time - t_init_end) / 2.0

    def idle_hot_object(self, t: float) -> str:
        """The hot array *not* being touched at wall-clock ``t``."""
        return "hot_black" if t < self.shift_time else "hot_red"

    def window_live(self, t0: float, live: dict[str, int]) -> dict[str, int]:
        idle = self.idle_hot_object(t0)
        return {name: base for name, base in live.items() if name != idle}
