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
	// suspectWords counts the 64-pattern word sweeps SuspectArcsTiered
	// actually ran (DESIGN.md §17; blocks with no failing bit are
	// skipped and not counted), bulk-added once per call.
	suspectWords = obs.Default().Counter("ddd_suspect_words_total",
		"64-pattern word sweeps executed by suspect pruning", nil)
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

// LedgerEntry is one process-wide total of the Monte-Carlo build's
// sub-stage ledger.
type LedgerEntry struct {
	Name  string
	Value float64
}

// DictLedger returns the process-wide totals of the Monte-Carlo
// build's sub-stage ledger: the four stage times in seconds
// (sample_s, baseline_s, defect_s, accumulate_s), then the defect
// re-simulations run and skipped (defect_simulated, defect_skipped).
// The difference of two reads is the ledger of the builds between
// them.
func DictLedger() []LedgerEntry {
	return []LedgerEntry{
		{"sample_s", dictStageSample.Value()},
		{"baseline_s", dictStageBaseline.Value()},
		{"defect_s", dictStageDefect.Value()},
		{"accumulate_s", dictStageAccumulate.Value()},
		{"defect_simulated", dictDefectSimulated.Value()},
		{"defect_skipped", dictDefectSkipped.Value()},
	}
}

// dictStages is one worker's share of the ledger: sample is delay and
// defect-size sampling, baseline the defect-free run per pattern, and
// defect the per-suspect re-simulations together with their
// failing-output counts. The build times the accumulate stage, the
// conversion of the shared integer counts into M and E, itself.
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
