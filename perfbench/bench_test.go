package main

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/bytecode"
	"repro/internal/telemetry"
)

func TestCoveredMergesOverlaps(t *testing.T) {
	evs := []telemetry.TraceEvent{
		{Ph: "X", TS: 0, Dur: 10},
		{Ph: "X", TS: 5, Dur: 10}, // overlaps the first: [0, 15)
		{Ph: "M", TS: 0, Dur: 100},
		{Ph: "X", TS: 20, Dur: 5},
		{Ph: "X", TS: 21, Dur: 1}, // nested in the previous one
	}
	if got, want := covered(evs), 20*time.Microsecond; got != want {
		t.Fatalf("covered = %v, want %v", got, want)
	}
}

func TestSelfTimesSubtractDirectChildren(t *testing.T) {
	tr := &tracer{n: map[string]float64{}}
	tr.do("opt.pipeline", func() {
		tr.do("core.instrument", func() { time.Sleep(2 * time.Millisecond) })
	})
	self := tr.selfTimes()
	pipe, instr := tr.spans[0], tr.spans[1]
	if instr.parent != pipe.id || pipe.parent != 0 {
		t.Fatalf("parents: instrument %d (want %d), pipeline %d (want 0)", instr.parent, pipe.id, pipe.parent)
	}
	if got, want := self["opt.pipeline"], pipe.dur-instr.dur; got != want {
		t.Fatalf("pipeline self = %v, want %v", got, want)
	}
	if got := self["core.instrument"]; got != instr.dur {
		t.Fatalf("instrument self = %v, want %v", got, instr.dur)
	}
}

func TestMedianAndPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Fatalf("median = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("even median = %v, want 2.5", got)
	}
	if got := percentile(xs, 95); got != 5 {
		t.Fatalf("p95 = %v, want 5", got)
	}
	if got := percentile(xs, 50); got != 3 {
		t.Fatalf("p50 = %v, want 3", got)
	}
}

func TestCellKeyDropsEngine(t *testing.T) {
	k := "401bzip2|i=true|m=0|mode=0|dom=true|hoist=false|szw=false|i2pw=false|c2w=false|ep=2|O=3|compiler|prof=false|forensics=false|cost=default"
	want := "401bzip2|i=true|m=0|mode=0|dom=true|hoist=false|szw=false|i2pw=false|c2w=false|ep=2|O=3|prof=false|forensics=false|cost=default"
	if got := cellKey(k, bytecode.EngineCompiler); got != want {
		t.Fatalf("cellKey = %q, want %q", got, want)
	}
}

const faultOutput = `Fault-injection campaign: seed 1, 6 variants over 1 benchmarks
ground truth: violation kinds should be detected, benign kinds should pass

kind           truth     | softbound det miss  fp pass crsh  ok | lowfat    det miss  fp pass crsh  ok
gep-overflow   violation | exp:detect   1    0   0    0    0   1 | exp:detect   1    0   0    0    0   1
gep-padding    violation | exp:detect   1    0   0    0    0   1 | exp:miss    0    1   0    0    0   1
obf-benign     benign    | exp:falsepos   1    0   0    0    0   %s | exp:pass    0    0   0    1    0   1

attribution: %s detected faults named their allocation site in the violation report
`

func TestCheckFaultsCountsContradictions(t *testing.T) {
	for _, tc := range []struct {
		ok, attribution string
		failed          int
	}{
		{"1", "3/3", 0},
		{"0", "3/3", 1}, // one verdict contradicts the prediction
		{"1", "2/3", 1}, // one detected fault lost its allocation site
	} {
		chk := &check{}
		out := []byte(fmt.Sprintf(faultOutput, tc.ok, tc.attribution))
		checkFaults(chk, &campaign{stdout: out})
		if chk.attempted != 6 || chk.failed != tc.failed {
			t.Errorf("ok=%s attribution=%s: attempted %d failed %d, want 6 and %d (%v)",
				tc.ok, tc.attribution, chk.attempted, chk.failed, tc.failed, chk.problems)
		}
	}
}
