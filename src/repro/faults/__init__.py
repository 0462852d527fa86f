"""Fault-injection & elasticity subsystem (PR 8).

Declarative plans (:mod:`repro.faults.plan`) travel the experiment platform
as the ``failures`` sweep axis; the runtime injector
(:mod:`repro.faults.injector`) interprets them inside a running simulation.
Import from those modules: the package re-exports nothing, so the sweep
spec's ``import repro.faults.plan`` does not load the injector.
"""
