"""End-to-end integration tests: paper-shape assertions on small runs.

These runs use aggressive scaling (fast), so they assert *orderings*
and coarse magnitudes — the properties the benchmark harness then
reproduces at higher fidelity.
"""

from repro.experiments import ExperimentSpec, Plan, SchemeSpec, run_plan, run_spec
from repro.sim.metrics import mean_over

FAST = dict(scale=32.0, n_banks=1, n_intervals=2)


def run_workload(workload, scheme, **knobs):
    return run_spec(ExperimentSpec(
        scheme=scheme, workload=workload, **FAST, **knobs
    ))


def run_attack(kernel, mode, scheme, **knobs):
    return run_spec(ExperimentSpec(
        scheme=scheme, kind="attack", attack_kernel=kernel,
        attack_mode=mode, workload="libq", **FAST, **knobs,
    ))


def run_grid(workloads, schemes):
    plan = Plan.grid(
        ExperimentSpec(scheme=SchemeSpec("drcat"), **FAST),
        workload=workloads, scheme=schemes,
    )
    return dict(zip(plan.keys(), run_plan(plan)))


class TestSchemeOrderings:
    def test_cat_beats_sca_on_skewed_workload(self):
        """The paper's core claim: adaptive counters refresh far fewer
        rows than a uniform static assignment at equal counter count."""
        sca = run_workload("black", scheme=SchemeSpec.create("sca", n_counters=64))
        drcat = run_workload("black", scheme=SchemeSpec.create("drcat", n_counters=64))
        assert (
            drcat.totals.rows_refreshed_per_bank_interval
            < 0.7 * sca.totals.rows_refreshed_per_bank_interval
        )
        assert drcat.cmrpo < sca.cmrpo

    def test_sca128_beats_sca64_rows(self):
        r64 = run_workload("face", scheme=SchemeSpec.create("sca", n_counters=64))
        r128 = run_workload("face", scheme=SchemeSpec.create("sca", n_counters=128))
        assert (
            r128.totals.rows_refreshed_per_bank_interval
            < r64.totals.rows_refreshed_per_bank_interval
        )

    def test_pra_dominated_by_prng_energy(self):
        result = run_workload("libq", scheme="pra")
        b = result.cmrpo_breakdown
        assert b.dynamic_mw > b.refresh_mw

    def test_pra_cmrpo_near_paper_level(self):
        """PRA's CMRPO is access-rate bound: ~10% at paper intensities."""
        result = run_workload("comm1", scheme="pra")
        assert 0.05 < result.cmrpo < 0.20

    def test_cat_eto_below_sca(self):
        sca = run_workload("black", scheme=SchemeSpec.create("sca", n_counters=64))
        prcat = run_workload("black", scheme=SchemeSpec.create("prcat", n_counters=64))
        assert prcat.eto < sca.eto

    def test_all_etos_small(self):
        """Figure 9: every scheme's ETO stays in the sub-percent range."""
        for scheme in ("pra", "sca", "prcat", "drcat"):
            r = run_workload("comm1", scheme=scheme)
            assert r.eto < 0.05


class TestThresholdSensitivity:
    def test_sca_suffers_more_at_lower_threshold(self):
        """Figure 8/12: halving T inflates SCA's CMRPO far more than
        CAT's."""
        def run(scheme, t):
            return run_workload("face", scheme, refresh_threshold=t).cmrpo

        sca_growth = run("sca", 16384) - run("sca", 32768)
        drcat_growth = run("drcat", 16384) - run("drcat", 32768)
        assert sca_growth > drcat_growth

    def test_drcat_stays_under_ten_percent_at_8k(self):
        """Figure 12: T=8K with doubled counters stays below 10%."""
        r = run_workload(
            "comm1",
            scheme=SchemeSpec.create("drcat", n_counters=128),
            refresh_threshold=8192,
        )
        assert r.cmrpo < 0.10


class TestAttackIntegration:
    def test_heavier_attacks_cost_more_eto(self):
        etos = [
            run_attack(
                "kernel01", mode,
                SchemeSpec.create("sca", n_counters=128),
                refresh_threshold=16384,
            ).eto
            for mode in ("light", "heavy")
        ]
        assert etos[1] > etos[0]

    def test_cat_confines_attacks_better_than_sca(self):
        """Section VIII-D: CAT refreshes far fewer rows under attack."""
        sca = run_attack(
            "kernel02", "heavy",
            SchemeSpec.create("sca", n_counters=128),
            refresh_threshold=16384,
        )
        drcat = run_attack(
            "kernel02", "heavy",
            SchemeSpec.create("drcat", n_counters=64),
            refresh_threshold=16384,
        )
        assert (
            drcat.totals.rows_refreshed_per_bank_interval
            < 0.5 * sca.totals.rows_refreshed_per_bank_interval
        )


class TestSweepIntegration:
    def test_mean_ordering_over_sample(self):
        """Figure 8 headline: CAT mean CMRPO beats SCA and PRA means."""
        workloads = ["black", "face", "comm1", "libq"]
        results = run_grid(workloads, ["pra", "sca", "drcat"])
        means = {
            scheme: mean_over([results[(w, scheme)] for w in workloads], "cmrpo")
            for scheme in ("pra", "sca", "drcat")
        }
        assert means["drcat"] < means["sca"]
        assert means["drcat"] < means["pra"]

    def test_sweep_results_all_populated(self):
        results = run_grid(["mum"], ["sca", "prcat"])
        for result in results.values():
            assert result.totals.accesses > 0
            assert result.cmrpo >= 0
