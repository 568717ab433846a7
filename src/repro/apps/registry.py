"""Application registry: name -> model factory."""

from __future__ import annotations

from typing import Callable, Iterator

from repro.apps.base import SimApplication
from repro.apps.cgpop import CGPOP
from repro.apps.gtcp import GTCP
from repro.apps.hpcg import HPCG
from repro.apps.lulesh import Lulesh
from repro.apps.maxw_dgtd import MaxwDGTD
from repro.apps.minife import MiniFE
from repro.apps.nas_bt import NasBT
from repro.apps.phaseshift import PhaseShift
from repro.apps.snap import SNAP
from repro.errors import WorkloadError

#: Table I order — only the paper's applications; synthetic extras
#: (below) are resolvable by name but stay out of Table I sweeps.
APP_NAMES: tuple[str, ...] = (
    "hpcg",
    "lulesh",
    "nas-bt",
    "minife",
    "cgpop",
    "snap",
    "maxw-dgtd",
    "gtc-p",
)

_REGISTRY: dict[str, Callable[[], SimApplication]] = {
    "hpcg": HPCG,
    "lulesh": Lulesh,
    "nas-bt": NasBT,
    "minife": MiniFE,
    "cgpop": CGPOP,
    "snap": SNAP,
    "maxw-dgtd": MaxwDGTD,
    "gtc-p": GTCP,
    "phaseshift": PhaseShift,
}

#: Every name :func:`get_app` resolves: Table I, then the extras.
ALL_APP_NAMES: tuple[str, ...] = tuple(_REGISTRY)


def get_app(name: str) -> SimApplication:
    """Instantiate an application model by name."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise WorkloadError(
            f"unknown application {name!r}; have {sorted(_REGISTRY)}"
        ) from None
    return factory()


def iter_apps() -> Iterator[SimApplication]:
    """All Table I applications, in Table I order."""
    for name in APP_NAMES:
        yield get_app(name)
