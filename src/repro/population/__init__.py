"""Virtual-client populations: cohort sampling and materialization.

The population layer decouples the *registered* fleet (possibly
millions of clients, described by a shard provider) from the
*materialized* cohort (the federation's stacked ``(W, dim)`` buffers).
See :mod:`repro.population.binder` for the cohort draw, the slot-pool
lifecycle and the carry-forward contract, and ``docs/architecture.md``
§15 for the full design.
"""

from repro.population.binder import PopulationBinder

__all__ = ["PopulationBinder"]
