package main

import (
	"fmt"
	"math"
	"strconv"
	"time"

	"repro/internal/bytecode"
)

// workload is one campaign the benchmark measures. README.md records why
// each was chosen and which layer metrics should move it.
type workload struct {
	name string
	// faults marks the fault-injection campaign; the other workloads run
	// Figure 9.
	faults bool
	// coldBuilds, when non-zero, starts each campaign's private cache with
	// the store's Figure 9 plugins minus this many, so the campaign builds
	// them.
	coldBuilds int
}

// campaignEngine is the execution engine of every measured campaign.
const campaignEngine = bytecode.EngineCompiler

// repSeconds is a campaign's nominal length on the reference machine (2
// CPUs, go1.24.0), the same for both workloads; a run repeats the campaign
// seconds/repSeconds times, at least minReps, so both commits of a
// comparison do the same work.
const repSeconds = 11

// minReps is the fewest campaigns a run measures; the reported value is
// their median.
const minReps = 2

var fig9Flags = []string{"-fig9"}

var workloads = []*workload{
	{name: "fig9-compiler-cold", coldBuilds: 8},
	{name: "faults-compiler", faults: true},
}

// campaignJobs is the -j of every campaign process: the CPU count of the
// reference machine, fixed so runs on other machines do the same work.
const campaignJobs = "2"

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// reps returns how many campaigns a run of the given length measures.
func reps(budget time.Duration) int {
	n := int(math.Round(budget.Seconds() / repSeconds))
	if n < minReps {
		n = minReps
	}
	return n
}

// repSeed is the fault seed of repetition rep of a run with the given seed.
// The fault campaign's cost depends on its plan (±12% over seeds 1-10), so
// each repetition plants a different plan and a run's median averages over
// them: seed, seed+1, ... The figure workloads ignore it.
func (w *workload) repSeed(seed int64, rep int) int64 { return seed + int64(rep) }

// inputName names a campaign's input for the recorded counts: the fault
// plan's seed, or the workload itself when its input is fixed.
func (w *workload) inputName(faultSeed int64) string {
	if w.faults {
		return fmt.Sprintf("%s-seed%d", w.name, faultSeed)
	}
	return w.name
}

// args returns the mi-bench command line of one campaign.
func (w *workload) args(seed int64, jsonOut string) []string {
	args := []string{"-engine", campaignEngine.String(), "-j", campaignJobs, "-json", jsonOut}
	if w.faults {
		return append(args, "-faults", "-fault-seed", strconv.FormatInt(seed, 10))
	}
	return append(args, fig9Flags...)
}
