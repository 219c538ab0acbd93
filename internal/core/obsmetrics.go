package core

import (
	"time"

	"repro/internal/obs"
)

// Process-wide pipeline counters (obs.Default registry): dictionary
// construction is the expensive Monte-Carlo artifact and diagnosis
// the serving-path match, so both totals are visible on any /metrics
// scrape and in ad-hoc profiling. Counting happens once per call
// (bulk adds), never per sample, so the instrumentation cost is noise
// against the simulation work it measures.
// The dictionary-build counters carry a constant engine label so a
// scrape distinguishes Monte-Carlo builds from analytic (closed-form
// SSTA) builds; the samples counter exists only for the MC series — an
// analytic build simulates no instances.
var (
	dictBuilds = obs.Default().Counter("ddd_core_dict_builds_total",
		"fault dictionaries built", obs.Labels{"engine": "mc"})
	dictBuildsAnalytic = obs.Default().Counter("ddd_core_dict_builds_total",
		"fault dictionaries built", obs.Labels{"engine": "analytic"})
	dictBuildSeconds = obs.Default().Counter("ddd_core_dict_build_seconds_total",
		"wall time spent building fault dictionaries", obs.Labels{"engine": "mc"})
	dictBuildSecondsAnalytic = obs.Default().Counter("ddd_core_dict_build_seconds_total",
		"wall time spent building fault dictionaries", obs.Labels{"engine": "analytic"})
	dictBuildSamples = obs.Default().Counter("ddd_core_dict_build_samples_total",
		"Monte-Carlo instance samples simulated into dictionaries", obs.Labels{"engine": "mc"})
	diagnoses = obs.Default().Counter("ddd_core_diagnoses_total",
		"diagnosis rankings computed (all methods, plain and compressed)", nil)
	// Word-parallel diagnosis kernels (DESIGN.md §17): suspectWords
	// counts the 64-pattern word sweeps SuspectArcsTiered actually ran
	// (blocks with no failing bit are skipped and not counted), and
	// behaviorSimSkipped the per-pattern tsim runs the cone prescreen
	// proved unnecessary in SimulateBehavior/SimulateBehaviorMulti.
	// Both are bulk-added once per call.
	suspectWords = obs.Default().Counter("ddd_suspect_words_total",
		"64-pattern word sweeps executed by suspect pruning", nil)
	behaviorSimSkipped = obs.Default().Counter("ddd_behavior_sim_skipped_total",
		"behavior-simulation tsim runs skipped by the word-parallel prescreen", nil)
)

// The Monte-Carlo build's sub-stage ledger: wall time per inner stage
// and the count of defect re-simulations run or skipped (the suspect
// arc's driver never transitions under the pattern). Stage times are
// summed over workers, so with several workers they add up to more
// than the build's wall time. Each worker keeps its own dictStages,
// added once when the build's sampling ends, like the counters above.
var (
	dictStageSample     = dictStageCounter("sample")
	dictStageBaseline   = dictStageCounter("baseline")
	dictStageDefect     = dictStageCounter("defect")
	dictStageAccumulate = dictStageCounter("accumulate")
	dictDefectSimulated = obs.Default().Counter("ddd_core_dict_defect_sims_total",
		"per-(sample, pattern, suspect) defect re-simulations in Monte-Carlo dictionary builds",
		obs.Labels{"outcome": "simulated"})
	dictDefectSkipped = obs.Default().Counter("ddd_core_dict_defect_sims_total",
		"per-(sample, pattern, suspect) defect re-simulations in Monte-Carlo dictionary builds",
		obs.Labels{"outcome": "skipped_no_transition"})
)

func dictStageCounter(stage string) *obs.Counter {
	return obs.Default().Counter("ddd_core_dict_build_stage_seconds_total",
		"Monte-Carlo dictionary build time per inner stage, summed over workers",
		obs.Labels{"stage": stage})
}

// dictStages is one worker's share of the ledger: sample is delay and
// defect-size sampling, baseline the defect-free run per pattern, and
// defect the per-suspect re-simulations together with their
// failing-output counts. The build times the accumulate stage, the
// fold of the workers' counts into M, E and S, itself.
type dictStages struct {
	sample, baseline, defect time.Duration
	simulated, skipped       int64
}

// record bulk-adds one worker's ledger to the process-wide counters.
func (s *dictStages) record() {
	dictStageSample.Add(s.sample.Seconds())
	dictStageBaseline.Add(s.baseline.Seconds())
	dictStageDefect.Add(s.defect.Seconds())
	dictDefectSimulated.Add(float64(s.simulated))
	dictDefectSkipped.Add(float64(s.skipped))
}
