"""Effective Power Utilization (paper Eq. 1).

    EPU = sum(P_throughput) / sum(P_supply)

``P_throughput`` is the green power *directly used to generate workload
throughput* — the wall power drawn by servers that are actually producing
output — and ``P_supply`` is the power supplied to the rack.  EPU is 1.0
when every supplied watt turns into computation; it drops when power is
allocated to servers that cannot use it (below idle power, above the
workload's maximum draw, or to servers parked asleep).

Unlike PUE, which measures facility overhead, EPU measures *allocation*
quality, which is why the paper introduces it (Section III-A).  The
controller's epoch (:class:`repro.core.controller.GreenHeteroController`)
and the Fig. 3 case study (:func:`repro.servers.power_model.case_study_sweep`)
both compute it here; the auditor's ``epu-range`` check holds every
epoch's value in [0, 1].
"""

from __future__ import annotations


def effective_power_utilization(useful_w: float, supply_w: float) -> float:
    """EPU of one interval (Eq. 1): ``useful_w / supply_w``, at most 1.

    Returns 0.0 when no power was supplied.
    """
    return 0.0 if supply_w <= 0 else min(useful_w / supply_w, 1.0)
