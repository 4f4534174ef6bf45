"""Phase profiling: no-op when inactive, accurate accounting when on."""

from repro.core.evaluation import evaluate_scenario
from repro.core.scenarios import Scenario
from repro.tech.operating import Mode
from repro.util.profiling import active_profiler, phase, profiled


class TestProfiler:
    def test_inactive_phase_is_noop(self):
        assert active_profiler() is None
        with phase("anything"):
            pass
        assert active_profiler() is None

    def test_records_phases(self):
        with profiled() as profiler:
            with phase("alpha"):
                pass
            with phase("alpha"):
                pass
            with phase("beta"):
                pass
        assert profiler.phases["alpha"].calls == 2
        assert profiler.phases["beta"].calls == 1
        assert profiler.phases["alpha"].seconds >= 0.0

    def test_nested_profilers_restore(self):
        with profiled() as outer:
            with profiled() as inner:
                with phase("inner-only"):
                    pass
            with phase("outer-only"):
                pass
        assert "inner-only" in inner.phases
        assert "inner-only" not in outer.phases
        assert "outer-only" in outer.phases

    def test_render_lists_phases(self):
        with profiled() as profiler:
            with phase("simulate"):
                pass
        rendered = profiler.render()
        assert "simulate" in rendered
        assert "wall" in rendered

    def test_pipeline_phases_show_up(self, chips_a, design_a):
        """An end-to-end evaluation populates the canonical phases."""
        from repro.engine.session import SimulationSession, use_session

        # Fresh session and an odd trace length: nothing memoized, every
        # stage actually executes under the profiler.
        with profiled() as profiler, use_session(SimulationSession()):
            evaluate_scenario(
                Scenario.A,
                Mode.ULE,
                trace_length=2_347,
                chips=chips_a,
                design=design_a,
            )
        assert "trace.generate" in profiler.phases
        assert "simulate.vectorized" in profiler.phases
        assert "energy.account" in profiler.phases
        assert "jobs.execute" in profiler.phases

    def test_batch_stage_phases_show_up(self, chips_a):
        """The batched path accounts its stages separately: plan build,
        kernel time and the per-job reduction tail."""
        from repro.engine.batch import execute_group
        from repro.engine.jobs import SimulationJob, TraceSpec

        jobs = [
            SimulationJob(
                chip=chips_a.proposed.config,
                trace=TraceSpec("adpcm_c", 2_347, 42),
                mode=Mode.ULE,
            )
        ]
        with profiled() as profiler:
            execute_group(jobs)
        assert "batch.plan" in profiler.phases
        assert "batch.kernel" in profiler.phases
        assert "run.reduce" in profiler.phases
        assert "jobs.execute" in profiler.phases

    def test_population_sampling_and_hashing_show_up(self):
        """A die population attributes its sampling and its job-key
        hashing: one ``faults.sample`` per population drawn (the study
        sample plus each yield-curve supply) and one ``jobs.key`` per
        batch, never one per die or per job."""
        from repro.engine.session import SimulationSession
        from repro.faults.population import scenario_population_study

        study = scenario_population_study("A", dies=12, trace_length=1_500)
        with profiled() as profiler:
            study.run(session=SimulationSession())
        assert profiler.phases["faults.sample"].calls == (
            1 + len(study.vdd_grid)
        )
        assert profiler.phases["jobs.key"].calls == 1
