"""PEBS substitute: hardware-style sampling of LLC misses."""

from repro.pebs.sampler import PebsSampler

__all__ = ["PebsSampler"]
