package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/bytecode"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/harness"
	"repro/internal/ir"
	"repro/internal/opt"
	"repro/internal/spec"
	"repro/internal/telemetry"
	"repro/internal/vm"
)

// The traced run drives a workload's cells serially through the layers'
// public functions, timing each call from the benchmark's own code. Spans
// stay in memory — one per layer call, each with its parent, every span of
// a cell sharing the cell's ID — and are written as Chrome trace-event JSON
// at exit. A layer's self time is its spans' duration minus their child
// spans; the remainder of the traced wall time is reported as unattributed.

// span is one timed layer call.
type span struct {
	id, parent, cell int
	name             string
	start            time.Time
	dur              time.Duration
	args             map[string]any
}

// tracer records spans and the per-layer counters measured around them.
type tracer struct {
	spans []*span
	open  []*span // the stack of spans in progress
	cell  int
	n     map[string]float64 // per-layer counters, by metric name
}

// do times f as a span named name, nested under the innermost open span.
func (t *tracer) do(name string, f func()) *span {
	s := &span{id: len(t.spans) + 1, cell: t.cell, name: name}
	if len(t.open) > 0 {
		s.parent = t.open[len(t.open)-1].id
	}
	t.spans = append(t.spans, s)
	t.open = append(t.open, s)
	s.start = time.Now()
	f()
	s.dur = time.Since(s.start)
	t.open = t.open[:len(t.open)-1]
	return s
}

// add bumps a per-layer counter.
func (t *tracer) add(name string, v float64) { t.n[name] += v }

// selfTimes returns each span name's total self time: span durations minus
// the durations of their direct children.
func (t *tracer) selfTimes() map[string]time.Duration {
	self := map[string]time.Duration{}
	byID := map[int]*span{}
	for _, s := range t.spans {
		byID[s.id] = s
		self[s.name] += s.dur
	}
	for _, s := range t.spans {
		if p := byID[s.parent]; p != nil {
			self[p.name] -= s.dur
		}
	}
	return self
}

// write renders the spans as Chrome trace-event JSON, after the runner's own
// events (already in tr), on one track for the layer calls.
func (t *tracer) write(tr *telemetry.Trace, path string) error {
	tid := tr.Track("perfbench layer calls")
	for _, s := range t.spans {
		args := map[string]any{"span_id": s.id, "parent_id": s.parent, "cell_id": s.cell}
		for k, v := range s.args {
			args[k] = v
		}
		tr.Event(s.name, tid, s.start, s.dur, args)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return tr.WriteChromeJSON(path)
}

func countInstrs(m *ir.Module) int {
	n := 0
	m.Definitions(func(f *ir.Func) { n += f.NumInstrs() })
	return n
}

// layerMetrics lists every per-layer metric with its unit, in report order.
var layerMetrics = []struct{ name, unit string }{
	{"cc.compile_ms", "ms"}, {"cc.ir_instrs", "count"},
	{"opt.pipeline_ms", "ms"}, {"opt.ir_instrs_out", "count"}, {"opt.checks_eliminated", "count"},
	{"core.instrument_ms", "ms"}, {"core.checks_placed", "count"}, {"core.checks_dominated", "count"}, {"core.checks_hoisted", "count"},
	{"faultinject.run_ms", "ms"}, {"faultinject.build_variant_ms", "ms"}, {"faultinject.variants", "count"},
	{"faultinject.unexpected", "count"}, {"faultinject.attributed_ratio", "ratio"},
	{"vm.new_ms", "ms"},
	{"bytecode.lower_ms", "ms"}, {"bytecode.ops", "count"}, {"bytecode.cache_hit_ratio", "ratio"},
	{"bytecode.native_bind_ms", "ms"}, {"bytecode.native_build_ms", "ms"}, {"bytecode.native_load_ms", "ms"},
	{"bytecode.native_builds", "count"}, {"bytecode.native_cache_hits", "count"},
	{"bytecode.native_fallbacks.build_error", "count"}, {"bytecode.native_fallbacks.plugin_load", "count"},
	{"bytecode.native_fallbacks.disabled", "count"}, {"bytecode.native_fallbacks.policy", "count"},
	{"bytecode.plugin_cache_mb", "MiB"},
	{"bytecode.exec_ms", "ms"}, {"bytecode.instrs", "count"}, {"bytecode.minstrs_per_s", "Minstr/s"},
	{"bytecode.tier_native_pct", "%"}, {"bytecode.tier_fused_pct", "%"}, {"bytecode.tier_quick_pct", "%"}, {"bytecode.tier_interp_pct", "%"},
	{"bytecode.native_entries", "count"}, {"bytecode.native_bail_ratio", "ratio"}, {"bytecode.native_gate_ops", "count"},
	{"vm.cost", "count"}, {"vm.checks", "count"}, {"vm.wide_checks", "count"},
	{"lowfat.invariant_checks", "count"}, {"softbound.meta_loads", "count"}, {"softbound.meta_stores", "count"}, {"softbound.shadow_ops", "count"},
	{"harness.run_cell_ms", "ms"}, {"harness.cell_ms_p50", "ms"}, {"harness.cell_ms_p95", "ms"}, {"harness.self_ms", "ms"},
	{"trace.wall_s", "s"}, {"trace.unattributed_ms", "ms"}, {"trace.overhead_s", "s"}, {"trace.spans", "count"}, {"trace.cells", "count"},
}

// spanLayers maps span names to the self-time metric they report into.
var spanLayers = map[string]string{
	"cc.compile":                "cc.compile_ms",
	"opt.pipeline":              "opt.pipeline_ms",
	"core.instrument":           "core.instrument_ms",
	"faultinject.run":           "faultinject.run_ms",
	"faultinject.build_variant": "faultinject.build_variant_ms",
	"vm.new":                    "vm.new_ms",
	"bytecode.lower":            "bytecode.lower_ms",
	"bytecode.native_bind":      "bytecode.native_bind_ms",
	"bytecode.exec":             "bytecode.exec_ms",
	"harness.run_cell":          "harness.run_cell_ms",
}

// cellRun is the state one traced cell execution needs.
type cellRun struct {
	t     *tracer
	key   string // compiled-program cache key ("" = uncached)
	vopts vm.Options
}

// execute drives one instrumented module through vm.New, lowering, native
// binding and execution, and accumulates the layer counters.
func (c *cellRun) execute(m *ir.Module) (*vm.VM, int32, error) {
	t := c.t
	var machine *vm.VM
	var err error
	t.do("vm.new", func() { machine, err = vm.New(m, c.vopts) })
	if err != nil {
		return nil, 0, err
	}
	var prog *bytecode.Program
	h0, m0 := bytecode.CacheStats()
	t.do("bytecode.lower", func() {
		prog = bytecode.CompileCached(c.key, m, machine.CostModel(), false, c.vopts.Forensics, campaignEngine)
	})
	h1, m1 := bytecode.CacheStats()
	t.add("lower.hits", float64(h1-h0))
	t.add("lower.lookups", float64(h1-h0+m1-m0))
	t.add("bytecode.ops", float64(prog.NumOps()))

	var eng *bytecode.Engine
	ns0 := bytecode.NativeStats()
	bind := t.do("bytecode.native_bind", func() { eng, err = bytecode.NewEngine(prog, machine) })
	if err != nil {
		return nil, 0, err
	}
	ns1 := bytecode.NativeStats()
	build := time.Duration(ns1.BuildNS - ns0.BuildNS)
	t.add("bytecode.native_build_ms", ms(build))
	t.add("bytecode.native_load_ms", ms(bind.dur-build))
	t.add("bytecode.native_builds", float64(ns1.Builds-ns0.Builds))
	t.add("bytecode.native_cache_hits", float64(ns1.CacheHits-ns0.CacheHits))
	t.add("bytecode.native_fallbacks.build_error", float64(ns1.FallbackBuildError-ns0.FallbackBuildError))
	t.add("bytecode.native_fallbacks.plugin_load", float64(ns1.FallbackPluginLoad-ns0.FallbackPluginLoad))
	t.add("bytecode.native_fallbacks.disabled", float64(ns1.FallbackDisabled-ns0.FallbackDisabled))
	t.add("bytecode.native_fallbacks.policy", float64(ns1.FallbackPolicy-ns0.FallbackPolicy))

	var code int32
	rows0, total0 := tierTotals()
	t.do("bytecode.exec", func() { code, err = eng.Run() })
	rows1, total1 := tierTotals()
	t.add("tier.total", float64(total1-total0))
	t.add("tier.quick", float64(rows1.QuickInstrs-rows0.QuickInstrs))
	t.add("tier.fused", float64(rows1.FusedInstrs-rows0.FusedInstrs))
	t.add("tier.native", float64(rows1.NativeInstrs-rows0.NativeInstrs))
	t.add("bytecode.native_entries", float64(rows1.NativeEntries-rows0.NativeEntries))
	t.add("tier.bails", float64(rows1.NativeBails-rows0.NativeBails))
	t.add("bytecode.native_gate_ops", float64(rows1.GateOps-rows0.GateOps))

	st := machine.Stats
	t.add("bytecode.instrs", float64(st.Instrs))
	t.add("vm.cost", float64(st.Cost))
	t.add("vm.checks", float64(st.Checks))
	t.add("vm.wide_checks", float64(st.WideChecks))
	t.add("lowfat.invariant_checks", float64(st.InvariantChecks))
	t.add("softbound.meta_loads", float64(st.MetaLoads))
	t.add("softbound.meta_stores", float64(st.MetaStores))
	t.add("softbound.shadow_ops", float64(st.ShadowOps))
	return machine, code, err
}

// tierTotals sums the process-wide tier attribution over functions.
func tierTotals() (bytecode.TierFnStats, uint64) {
	rows, total := bytecode.TierStats()
	var sum bytecode.TierFnStats
	for _, r := range rows {
		sum.QuickInstrs += r.QuickInstrs
		sum.FusedInstrs += r.FusedInstrs
		sum.NativeInstrs += r.NativeInstrs
		sum.NativeEntries += r.NativeEntries
		sum.NativeBails += r.NativeBails
		sum.GateOps += r.GateOps
	}
	return sum, total
}

// pipeline runs the optimization pipeline on m with the instrumentation hook
// timed inside it, and accumulates the opt and core counters.
func (t *tracer) pipeline(m *ir.Module, ep opt.ExtPoint, level int, instr *core.Config) (*core.Stats, error) {
	var ps opt.PipelineStats
	var is *core.Stats
	var err error
	var hook func(*ir.Module)
	if instr != nil {
		hook = func(mod *ir.Module) {
			t.do("core.instrument", func() { is, err = core.Instrument(mod, *instr) })
		}
	}
	t.do("opt.pipeline", func() {
		opt.RunPipeline(m, ep, hook, opt.PipelineOptions{Level: level, Stats: &ps})
	})
	if err != nil {
		return nil, err
	}
	t.add("opt.ir_instrs_out", float64(countInstrs(m)))
	t.add("opt.checks_eliminated", float64(ps.ChecksRemovedByCompiler))
	if is != nil {
		t.add("core.checks_placed", float64(is.ChecksPlaced))
		t.add("core.checks_dominated", float64(is.Opt.ChecksEliminated))
		t.add("core.checks_hoisted", float64(is.Opt.ChecksHoisted))
	}
	return is, nil
}

// compile runs the frontend for b once per traced run.
func (t *tracer) compile(b *spec.Benchmark, mods map[string]*ir.Module) (*ir.Module, error) {
	if m := mods[b.Name]; m != nil {
		return m, nil
	}
	var m *ir.Module
	var err error
	t.do("cc.compile", func() { m, err = b.Compile() })
	if err != nil {
		return nil, err
	}
	t.add("cc.ir_instrs", float64(countInstrs(m)))
	mods[b.Name] = m
	return m, nil
}

// mechOptions returns the VM options of an instrumented configuration, as the
// harness and the fault campaign set them.
func mechOptions(mech core.Mech, o vm.Options) vm.Options {
	switch mech {
	case core.MechSoftBound:
		o.Mechanism = vm.MechSoftBound
	case core.MechLowFat:
		o.Mechanism = vm.MechLowFat
		o.LowFatHeap, o.LowFatStack, o.LowFatGlobals = true, true, true
	}
	return o
}

// tracedRun sets up like an end-to-end run, then drives the workload's cells
// through the layers in-process and reports the per-layer metrics.
func tracedRun(b *bench, w *workload, seed int64) (*result, error) {
	if err := b.prepare(w); err != nil {
		return nil, err
	}
	if _, err := b.setup(w); err != nil {
		return nil, err
	}
	ref, err := loadReference(b)
	if err != nil {
		return nil, err
	}
	tmp := b.privateTmp()
	cache := filepath.Join(tmp, "mi-native")
	if w.coldBuilds > 0 {
		names, err := plugins(b.storeDir())
		if err != nil {
			return nil, err
		}
		for _, n := range coldOrder(names)[:w.coldBuilds] {
			if err := os.Remove(filepath.Join(cache, n)); err != nil {
				return nil, err
			}
		}
	}
	// The native tier builds and loads plugins under TMPDIR/mi-native.
	if err := os.Setenv("TMPDIR", tmp); err != nil {
		return nil, err
	}

	t := &tracer{n: map[string]float64{}}
	tr := telemetry.NewTrace()
	res := &result{Correct: true}
	var problems []string
	start := time.Now()
	if w.faults {
		problems, err = t.faults(seed, res)
	} else {
		problems = t.figures(ref, tr, res)
	}
	if err != nil {
		return nil, err
	}
	wall := time.Since(start)
	for _, p := range problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", w.name, p)
	}
	res.Failed += len(problems)
	if res.Failed > 0 {
		res.Correct = false
	}

	self := t.selfTimes()
	var attributed time.Duration
	for name, d := range self {
		if m, ok := spanLayers[name]; ok {
			t.n[m] = ms(d)
			attributed += d
		}
	}
	n := t.n
	n["bytecode.cache_hit_ratio"] = ratio(n["lower.hits"], n["lower.lookups"])
	n["bytecode.minstrs_per_s"] = ratio(n["bytecode.instrs"], n["bytecode.exec_ms"]*1000)
	// Tier shares are of every executed instruction.
	n["bytecode.tier_native_pct"] = 100 * ratio(n["tier.native"], n["bytecode.instrs"])
	n["bytecode.tier_fused_pct"] = 100 * ratio(n["tier.fused"], n["bytecode.instrs"])
	n["bytecode.tier_quick_pct"] = 100 * ratio(n["tier.quick"], n["bytecode.instrs"])
	n["bytecode.tier_interp_pct"] = 100 - n["bytecode.tier_native_pct"] - n["bytecode.tier_fused_pct"] - n["bytecode.tier_quick_pct"]
	n["bytecode.native_bail_ratio"] = ratio(n["tier.bails"], n["bytecode.native_entries"])
	n["bytecode.plugin_cache_mb"] = float64(dirBytes(cache)) / mib
	var cellMS []float64
	for _, s := range t.spans {
		if s.name == "harness.run_cell" {
			cellMS = append(cellMS, ms(s.dur))
		}
	}
	n["harness.cell_ms_p50"] = percentile(cellMS, 50)
	n["harness.cell_ms_p95"] = percentile(cellMS, 95)
	n["trace.wall_s"] = wall.Seconds()
	n["trace.unattributed_ms"] = ms(wall - attributed)
	if harnessPass := self["harness.run_cell"]; harnessPass > 0 {
		// The harness pass reruns the same cells through the program's own
		// path, reusing the plugins the layer pass built: the layer pass
		// without its plugin builds, minus the harness pass, is the cost of
		// driving the cells through the benchmark's spans.
		builds := time.Duration(n["bytecode.native_build_ms"] * float64(time.Millisecond))
		n["trace.overhead_s"] = (wall - harnessPass - builds - harnessPass).Seconds()
	}
	n["trace.spans"] = float64(len(t.spans))

	if err := b.checkRecordedCounts("trace", w.inputName(seed), traceCounts(n)); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		res.Correct = false
	}
	tracePath := filepath.Join(b.work, "traces", fmt.Sprintf("%s-seed%d.json", w.name, seed))
	if err := t.write(tr, tracePath); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: trace written to %s (%d spans, wall %.2fs, unattributed %.1fms)\n",
		tracePath, len(t.spans), wall.Seconds(), n["trace.unattributed_ms"])

	res.Metrics = map[string]metric{}
	for _, lm := range layerMetrics {
		res.Metrics[lm.name] = metric{n[lm.name], lm.unit}
	}
	if res.Attempted == 0 {
		res.Attempted, res.Failed, res.Correct = 1, 1, false
	}
	return res, nil
}

// traceCounts picks the exact counts of a traced run for the determinism
// check: everything but times.
func traceCounts(n map[string]float64) *counts {
	c := &counts{VM: map[string]uint64{}, Tiers: map[string]uint64{}}
	for _, k := range []string{"cc.ir_instrs", "opt.ir_instrs_out", "opt.checks_eliminated", "core.checks_placed",
		"core.checks_dominated", "core.checks_hoisted", "bytecode.instrs", "vm.cost", "vm.checks", "vm.wide_checks",
		"lowfat.invariant_checks", "softbound.meta_loads", "softbound.meta_stores", "softbound.shadow_ops",
		"faultinject.variants", "faultinject.unexpected", "bytecode.ops", "lower.hits", "lower.lookups"} {
		c.VM[k] = uint64(n[k])
	}
	for _, k := range []string{"tier.total", "tier.quick", "tier.fused", "tier.native", "tier.bails",
		"bytecode.native_entries", "bytecode.native_gate_ops", "bytecode.native_builds", "bytecode.native_cache_hits",
		"bytecode.native_fallbacks.build_error", "bytecode.native_fallbacks.plugin_load",
		"bytecode.native_fallbacks.disabled", "bytecode.native_fallbacks.policy"} {
		c.Tiers[k] = uint64(n[k])
	}
	return c
}

// figures traces a figure workload: per cell, the layer pass (frontend,
// pipeline with instrumentation, VM, lowering, native binding, execution),
// then the same cell through harness.Runner.RunCell. The runner records its
// own spans into tr; harness self time is RunCell minus the time those spans
// cover.
func (t *tracer) figures(ref *reference, tr *telemetry.Trace, res *result) []string {
	r := harness.NewRunner()
	r.SetEngine(campaignEngine)
	r.SetTrace(tr)
	ax := r.Axes()
	mods := map[string]*ir.Module{}
	var problems []string
	var harnessSelf time.Duration
	cells := figureCells()
	for i, cl := range cells {
		t.cell = i + 1
		res.Attempted++
		key := ax.Key(cl.bench.Name, cl.cfg).String()
		rc := ref.Cells[cellKey(key, campaignEngine)]
		if rc == nil {
			problems = append(problems, fmt.Sprintf("cell %s/%s is not in the reference", cl.bench.Name, cl.cfg.Label))
			continue
		}
		var cellErr error
		root := t.do("cell", func() {
			pristine, err := t.compile(cl.bench, mods)
			if err != nil {
				cellErr = err
				return
			}
			m := ir.CloneModule(pristine)
			var instr *core.Config
			vopts := vm.Options{}
			if cl.cfg.Instrument {
				instr = &cl.cfg.Core
				vopts = mechOptions(cl.cfg.Core.Mechanism, vopts)
			}
			if _, err := t.pipeline(m, cl.cfg.EP, cl.cfg.OptLevel, instr); err != nil {
				cellErr = err
				return
			}
			c := &cellRun{t: t, key: key + "|tier=compiler", vopts: vopts}
			machine, code, err := c.execute(m)
			if err == nil && code != 0 {
				err = fmt.Errorf("exit code %d", code)
			}
			if err != nil {
				cellErr = err
				return
			}
			if machine.Stats != rc.Stats || sha([]byte(machine.Output())) != rc.OutputSHA256 {
				cellErr = errors.New("layer pass: stats or output differ from the tree reference")
			}
		})
		root.args = map[string]any{"bench": cl.bench.Name, "config": cl.cfg.Label}
		if cellErr != nil {
			problems = append(problems, fmt.Sprintf("cell %s/%s: %v", cl.bench.Name, cl.cfg.Label, cellErr))
			continue
		}

		n0 := len(tr.Events())
		var hres *harness.Result
		hs := t.do("harness.run_cell", func() { hres, _, cellErr = r.RunCell(cl.bench, cl.cfg, ax) })
		hs.args = root.args
		harnessSelf += hs.dur - covered(tr.Events()[n0:])
		if cellErr == nil {
			cellErr = hres.Err
		}
		if cellErr == nil && (hres.Stats != rc.Stats || sha([]byte(hres.Output)) != rc.OutputSHA256) {
			cellErr = errors.New("harness pass: stats or output differ from the tree reference")
		}
		if cellErr != nil {
			problems = append(problems, fmt.Sprintf("cell %s/%s: %v", cl.bench.Name, cl.cfg.Label, cellErr))
		}
	}
	t.cell = 0
	t.n["harness.self_ms"] = ms(harnessSelf)
	t.n["trace.cells"] = float64(len(cells))
	return problems
}

// covered returns the time the union of the complete events covers.
func covered(evs []telemetry.TraceEvent) time.Duration {
	type iv struct{ a, b float64 }
	var ivs []iv
	for _, e := range evs {
		if e.Ph == "X" {
			ivs = append(ivs, iv{e.TS, e.TS + e.Dur})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end float64
	for i, v := range ivs {
		if i == 0 || v.a > end {
			total += v.b - v.a
			end = v.b
		} else if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return time.Duration(total * 1e3)
}

// faults traces the fault campaign: faultinject.Run serially, then per
// reported variant its build (faultinject.BuildVariantForensic, which runs
// the pipeline and instrumentation inside the fault package, so no opt or
// core span of its own) and the variant's execution through the layers,
// whose verdict must match the campaign's.
func (t *tracer) faults(seed int64, res *result) ([]string, error) {
	var problems []string
	mods := map[string]*ir.Module{}
	for _, b := range spec.All() {
		if _, err := t.compile(b, mods); err != nil {
			return nil, err
		}
	}
	var rep *faultinject.Report
	t.do("faultinject.run", func() {
		rep = faultinject.Run(faultinject.Options{Seed: seed, Engine: campaignEngine, Parallel: 1})
	})
	for _, f := range rep.Failures {
		problems = append(problems, "campaign failure: "+f)
	}
	un := rep.Unexpected()
	for _, vr := range un {
		problems = append(problems, fmt.Sprintf("unexpected verdict: %s under %s: %s (expected %s)", vr.Fault, vr.Mech, vr.Outcome, vr.Expect))
	}
	attributed, attributable := 0, 0
	for i, vr := range rep.Results {
		t.cell = i + 1
		res.Attempted++
		if vr.Outcome == faultinject.OutDetected && !vr.Fault.Benign && vr.ExpectedAlloc != 0 {
			attributable++
			if vr.Attributed {
				attributed++
			}
		}
		pristine := mods[vr.Fault.Bench]
		var cellErr error
		root := t.do("cell", func() {
			var m *ir.Module
			var is *core.Stats
			t.do("faultinject.build_variant", func() {
				m, is, _, cellErr = faultinject.BuildVariantForensic(pristine, vr.Fault, vr.Mech, false)
			})
			if cellErr != nil {
				return
			}
			vopts := mechOptions(vr.Mech, vm.Options{Forensics: true, MaxSteps: 1 << 30, MemBudget: 1 << 30,
				Sites: is.Sites, AllocSites: is.AllocSites, SBCheckWrappers: vr.Mech == core.MechSoftBound})
			c := &cellRun{t: t, key: fmt.Sprintf("perfbench-fault-%d-seed%d", i, seed), vopts: vopts}
			_, code, err := c.execute(m)
			var viol *vm.ViolationError
			switch {
			case errors.As(err, &viol):
				if vr.Outcome != faultinject.OutDetected && vr.Outcome != faultinject.OutFalsePos || viol.Error() != vr.Detail {
					cellErr = fmt.Errorf("layer pass reported %q, campaign %s (%s)", viol.Error(), vr.Outcome, vr.Detail)
				}
			case err != nil || code != 0:
				if vr.Outcome != faultinject.OutCrashed {
					cellErr = fmt.Errorf("layer pass failed (%v, exit %d), campaign %s", err, code, vr.Outcome)
				}
			case vr.Outcome != faultinject.OutMissed && vr.Outcome != faultinject.OutPassed:
				cellErr = fmt.Errorf("layer pass ran clean, campaign %s (%s)", vr.Outcome, vr.Detail)
			}
		})
		root.args = map[string]any{"fault": vr.Fault.String(), "mech": vr.Mech.String()}
		if cellErr != nil {
			problems = append(problems, fmt.Sprintf("variant %s under %s: %v", vr.Fault, vr.Mech, cellErr))
		}
	}
	t.cell = 0
	if attributed != attributable {
		problems = append(problems, fmt.Sprintf("attribution incomplete: %d/%d", attributed, attributable))
	}
	t.n["faultinject.variants"] = float64(len(rep.Results))
	t.n["faultinject.unexpected"] = float64(len(un))
	t.n["faultinject.attributed_ratio"] = ratio(float64(attributed), float64(attributable))
	t.n["trace.cells"] = float64(len(rep.Results))
	return problems, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
