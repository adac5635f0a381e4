"""SoC performance-model substrate.

This package models the heterogeneous SoC platform the paper prototypes on
FPGA: a grid of tiles connected by a 2D-mesh NoC, private L2 caches for the
processors (and optionally for the accelerators), a last-level cache split
into partitions, and one DRAM controller per memory tile.  The model is
cycle-approximate and event-driven; its purpose is to reproduce the
*relative* behaviour of the four accelerator coherence modes.

The package re-exports nothing: import each name from its module
(``repro.soc.soc.Soc``, ``repro.soc.config.SoCConfig``, ...), so that a
process needing only ``repro.soc.coherence``, as the Q-table does, does not
load the whole substrate.
"""
