"""Workload catalog (paper Table I)."""

import pytest

from repro.errors import UnknownWorkloadError
from repro.workloads.catalog import (
    FIG9_WORKLOADS,
    GPU_WORKLOADS,
    INTERACTIVE_WORKLOADS,
    WORKLOADS,
    WorkloadKind,
    get_workload,
)


class TestTableI:
    def test_interactive_services(self):
        assert set(INTERACTIVE_WORKLOADS) == {"SPECjbb", "Web-search", "Memcached"}

    @pytest.mark.parametrize(
        "name,suite,metric",
        [
            ("SPECjbb", "SPEC", "jops"),
            ("Web-search", "Cloudsuite", "ops"),
            ("Memcached", "Cloudsuite", "rps"),
            ("Mcf", "SPECCPU", "ips"),
            ("Srad_v1", "Rodinia", "ips"),
        ],
    )
    def test_suite_and_metric(self, name, suite, metric):
        w = get_workload(name)
        assert w.suite == suite
        assert w.metric == metric

    def test_eight_parsec_workloads(self):
        parsec = [w for w in WORKLOADS.values() if w.suite == "PARSEC"]
        assert len(parsec) == 8

    @pytest.mark.parametrize(
        "name,pct,bound_ms",
        [
            ("SPECjbb", 0.99, 500),
            ("Web-search", 0.90, 500),
            ("Memcached", 0.95, 10),
        ],
    )
    def test_slo_constraints(self, name, pct, bound_ms):
        slo = get_workload(name).slo
        assert slo is not None
        assert slo.percentile == pct
        assert slo.bound_s == pytest.approx(bound_ms / 1000)

    def test_batch_workloads_have_no_slo(self):
        assert get_workload("Streamcluster").slo is None
        assert get_workload("Mcf").slo is None

    def test_gpu_workloads_are_rodinia_plus_streamcluster(self):
        assert set(GPU_WORKLOADS) == {
            "Streamcluster",
            "Srad_v1",
            "Particlefilter",
            "Cfd",
        }

    def test_fig9_has_thirteen_workloads(self):
        assert len(FIG9_WORKLOADS) == 13
        assert set(FIG9_WORKLOADS) <= set(WORKLOADS)

    def test_is_interactive_flag(self):
        assert get_workload("SPECjbb").is_interactive
        assert not get_workload("Vips").is_interactive

    def test_kinds(self):
        assert get_workload("Memcached").kind is WorkloadKind.INTERACTIVE
        assert get_workload("X264").kind is WorkloadKind.BATCH
        assert get_workload("Cfd").kind is WorkloadKind.HPC


class TestLookup:
    def test_case_insensitive(self):
        assert get_workload("specjbb").name == "SPECjbb"

    def test_unknown_raises(self):
        with pytest.raises(UnknownWorkloadError):
            get_workload("Redis")
