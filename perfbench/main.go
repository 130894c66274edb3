// Command perfbench is the FIAT gateway's frame→verdict benchmark. It
// drives raw Ethernet frames through the production layers the way a
// gateway wires them — packet.Decode, device and domain resolution with
// devices.RecordFromFrame, then durable.Manager (WAL append, then the
// engine) — with attestations from a paired core.ClientApp and the
// durable manager's housekeeping, checkpoints and crash restarts. Every
// verdict is checked against an independent oracle.
//
//	bash perfbench/run.sh --workload heartbeat --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the result;
// --trace 1 prints the per-layer ledger instead of the end-to-end metrics.
// See perfbench/README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"

	"fiat/internal/core"
	"fiat/internal/experiments"
	"fiat/internal/flows"
	"fiat/internal/stats"
)

var specs = []*spec{
	{
		name:        "heartbeat",
		why:         "4096 testbed-profile devices whose learned periodic control frames are rule hits: the fast path of decode, normalisation, compiled match, engine and WAL append",
		fleet:       4096,
		batch:       16,
		batchesPerS: 5000,
		attestEvery: 32,
		sweepEvery:  32,
		tickEvery:   8192,
		cycles:      12,
		suffix:      64,
		window:      30 * time.Second,
		bootstrap:   flows.DefaultBootstrap,
		warm:        30 * time.Second,
	},
	{
		// The home's audit log, and so its snapshot, grows with the run:
		// at twice this batchesPerS the 6.7 MB snapshots made
		// checkpoint_ms spread four times as much between runs.
		name:        "interactive",
		why:         "the ten-profile testbed home whose frames are mostly profile events: grouping, features, compiled inference, attestation checks, the pending queue and the audit log",
		batch:       8,
		batchesPerS: 3500,
		sweepEvery:  4,
		tickEvery:   4096,
		cycles:      50,
		suffix:      64,
		window:      10 * time.Second,
		bootstrap:   flows.DefaultBootstrap,
		warm:        5 * time.Minute,
		pending:     3 * time.Second,
	},
	{
		name:        "recovery",
		why:         "a 4096-device testbed-profile fleet with a grown audit log that checkpoints and crash-restarts over and over: snapshot encode and write, zero-copy restore, WAL replay",
		fleet:       4096,
		batch:       16,
		attestEvery: 4,
		teleEvery:   16,
		growWindows: 4,
		sweepEvery:  32,
		tickEvery:   8192,
		cyclesPerS:  1,
		suffix:      96,
		window:      30 * time.Second,
		bootstrap:   flows.DefaultBootstrap,
		warm:        5 * 30 * time.Second, // one window to freeze, four to grow the audit log
	},
}

// setupRuns is how many complete set-ups an untraced run makes; setup_s is
// their median.
const setupRuns = 3

// ledgerTolerance is how far the traced run's per-layer self times may sum
// from the untraced per-frame cost, as a share of the latter.
const ledgerTolerance = 0.10

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload name: heartbeat, interactive, or recovery")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "run length; the work per run is fixed by it")
	traced := flag.Int("trace", 0, "1 = print the per-layer ledger instead of end-to-end metrics")
	state := flag.String("state", ".bench_build", "directory for the durable state")
	flag.Parse()

	var sp *spec
	for _, s := range specs {
		if s.name == *workload {
			sp = s
		}
	}
	if sp == nil || *seconds < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or bad --seconds\n", *workload)
		os.Exit(2)
	}
	// Every world's state lives under one directory per process, removed
	// only when the run ends: deleting files mid-run (on a filesystem
	// mounted with discard) slows the fsyncs measured after it.
	stateRoot = filepath.Join(*state, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(stateRoot, 0o755); err != nil {
		fatal(err)
	}
	meta := experiments.NewBenchMeta(map[string]string{
		"workload": sp.name, "seed": strconv.FormatInt(*seed, 10),
		"seconds": strconv.Itoa(*seconds), "trace": strconv.Itoa(*traced),
		"state_fs": fsType(*state),
	})
	bc, rc := clockCostNs()
	mj, _ := json.Marshal(meta)
	fmt.Printf("meta %s\n", mj)
	fmt.Printf("clock: bench clock %.1f ns/read, simclock.RealClock %.1f ns/read\n", bc, rc)
	fmt.Printf("workload %s: %s\n", sp.name, sp.why)

	var res result
	var err error
	if *traced == 0 {
		res, err = runUntraced(sp, *seed, *seconds, stateRoot)
	} else {
		res, err = runTraced(sp, *seed, *seconds, stateRoot)
	}
	if err != nil {
		fatal(err)
	}
	if err := os.RemoveAll(stateRoot); err != nil {
		fatal(err)
	}
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
}

// stateRoot is this process's state directory.
var stateRoot string

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	if stateRoot != "" {
		os.RemoveAll(stateRoot)
	}
	os.Exit(1)
}

// phase is one measured phase's outcome.
type phase struct {
	m         *measure
	wallNs    int64
	gcCycles  uint32
	gcPauseNs uint64
	digest    digest
	ruleHits  float64
}

// runPhase does the run's fixed work on a set-up world: the frame phase,
// then the recovery cycles.
func runPhase(w *world, seconds int, tagModes bool) (phase, error) {
	ps, err := runPhases([]*world{w}, seconds, []bool{tagModes})
	if err != nil {
		return phase{}, err
	}
	return ps[0], nil
}

// interleave is how many steps a world takes before the next world of
// runPhases takes its turn.
const interleave = 64

// runPhases does the run's fixed work on several set-up worlds at once,
// taking turns — interleave steps, or one recovery cycle, each — so that
// every world meets the same machine conditions over the run.
func runPhases(ws []*world, seconds int, tagModes []bool) ([]phase, error) {
	type start struct {
		s0                core.ProxyStats
		held0, exp0, adm0 int
	}
	ps := make([]phase, len(ws))
	st := make([]start, len(ws))
	for i, w := range ws {
		w.m = newMeasure(tagModes[i], w.sp.batches(seconds))
		if w.tr != nil {
			w.tr = newTrace() // the ledger covers the phase, not set-up
		}
		st[i] = start{w.eng.Proxy().StatsSnapshot(), w.or.heldTotal, w.or.expiredTotal, w.or.admittedTotal}
		clear(w.or.reasons)
	}
	runtime.GC()
	var ms runtime.MemStats
	turn := func(i int, work func(w *world) error) error {
		runtime.ReadMemStats(&ms)
		gc0, pause0, t0 := ms.NumGC, ms.PauseTotalNs, time.Now()
		err := work(ws[i])
		ps[i].wallNs += time.Since(t0).Nanoseconds()
		runtime.ReadMemStats(&ms)
		ps[i].gcCycles += ms.NumGC - gc0
		ps[i].gcPauseNs += ms.PauseTotalNs - pause0
		return err
	}
	sp := ws[0].sp
	for left := sp.batchesPerS * seconds; left > 0; left -= interleave {
		n := min(left, interleave)
		for i := range ws {
			if err := turn(i, func(w *world) error { return w.steps(n) }); err != nil {
				return nil, err
			}
		}
	}
	for c := 0; c < sp.cycles+sp.cyclesPerS*seconds; c++ {
		for i := range ws {
			if err := turn(i, (*world).recoveryCycle); err != nil {
				return nil, err
			}
		}
	}
	runtime.GC()
	for i, w := range ws {
		w.m.sampleHeap()
		s0, s1 := st[i].s0, w.eng.Proxy().StatsSnapshot()
		ps[i].m, ps[i].digest = w.m, w.or.digest
		if d := s1.Packets - s0.Packets; d > 0 {
			ps[i].ruleHits = float64(s1.RuleHits-s0.RuleHits) / float64(d)
		}
		// The proxy's own counters must agree with the oracle's.
		checks := []struct {
			name      string
			got, want int
		}{
			{"pending held", s1.PendingHeld - s0.PendingHeld, w.or.heldTotal - st[i].held0},
			{"pending expired", s1.PendingExpired - s0.PendingExpired, w.or.expiredTotal - st[i].exp0},
			{"late admitted", s1.LateAdmitted - s0.LateAdmitted, w.or.admittedTotal - st[i].adm0},
			{"bad attestations", s1.AttestationsBad - s0.AttestationsBad, 0},
		}
		for _, c := range checks {
			w.m.check(c.got == c.want)
			if c.got != c.want {
				fmt.Fprintf(os.Stderr, "proxy stats: %s = %d, oracle expects %d\n", c.name, c.got, c.want)
			}
		}
	}
	return ps, nil
}

// allocsPerFrame is the gateway's heap allocations per frame while
// stepping: the phone's attestation encoding is taken out, and checkpoints
// and restarts are not stepping.
func allocsPerFrame(m *measure) float64 {
	return float64(m.stepMallocs-m.phoneMallocs) / float64(m.frames)
}

func runUntraced(sp *spec, seed int64, seconds int, state string) (result, error) {
	var (
		w            *world
		setups       []float64
		errs, setOps int64
	)
	for i := 0; i < setupRuns; i++ {
		if w != nil {
			w.close()
			w = nil
		}
		runtime.GC()
		t0 := time.Now()
		nw, err := setup(sp, seed, seconds, state, untraced)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		w = nw
		errs += w.setupErrs
		setOps += w.setupOps
	}
	defer w.close()
	p, err := runPhase(w, seconds, false)
	if err != nil {
		return result{}, err
	}
	m := p.m
	fmt.Printf("setup: %d runs, seconds %v; measured phase %.1f s wall\n", len(setups), setups, float64(p.wallNs)/1e9)
	b, a := m.batchNs, m.attestNs
	fmt.Printf("batch latency: n=%d, p50=%.1f us, p75=%.1f us, p90=%.1f us, p99=%.1f us (%d frames per batch)\n", len(b), us(pct(b, 50)), us(pct(b, 75)), us(pct(b, 90)), us(pct(b, 99)), sp.batch)
	fmt.Printf("attestation latency: n=%d, p50=%.1f us, p75=%.1f us, p90=%.1f us, p99=%.1f us\n", len(a), us(pct(a, 50)), us(pct(a, 75)), us(pct(a, 90)), us(pct(a, 99)))
	fmt.Printf("throughput: %.0f frames/s over the fastest %.0f%% of steps, %.0f over all\n", trimmedRate(m.stepNs, sp.batch), 100*keepSteps, float64(m.frames)/(float64(m.busyNs)/1e9))
	fmt.Printf("recovery: %d cycles, checkpoint ms %v, restart ms %v, %.0f allocations per cycle\n", len(m.ckptMs), round2(m.ckptMs), round2(m.restartMs), div(int64(m.recoveryMallocs), int64(max(len(m.ckptMs), 1))))
	fmt.Printf("allocations while stepping: %d over %d frames; the phone's attestation encoding, left out: %d (%.1f%% of the bytes)\n",
		m.stepMallocs, m.frames, m.phoneMallocs, 100*float64(m.phoneBytes)/float64(max(m.stepBytes, 1)))
	fmt.Printf("decisions: rule hits %.4f of frames after bootstrap; %s\n", p.ruleHits, w.or.census())
	fmt.Printf("digest %016x over %d operations; %d wrong in set-up (of %d), %d in the run\n", uint64(p.digest), m.attempted, errs, setOps, m.wrong)
	fmt.Printf("humanness model: %d of %d phone windows judged against their label (expected verdicts follow the model)\n", w.labelDiff, 2*len(w.windows[attestHuman]))
	fmt.Printf("event classifiers: %d of %d pool events that reach a decision judged against their label (expected verdicts follow the classifiers)\n", w.poolConfused, w.poolDecided)

	failed, attempted := m.wrong+errs, m.attempted+setOps
	res := result{
		Correct: failed == 0, Attempted: attempted, Failed: failed,
		Metrics: map[string]metric{
			"frames_per_s":     {trimmedRate(m.stepNs, sp.batch), "1/s"},
			"batch_p50_us":     {us(pct(b, 50)), "us"},
			"batch_p75_us":     {us(pct(b, 75)), "us"},
			"attest_p50_us":    {us(pct(a, 50)), "us"},
			"attest_p75_us":    {us(pct(a, 75)), "us"},
			"verdict_ok_frac":  {float64(attempted-failed) / float64(attempted), "frac"},
			"allocs_per_frame": {allocsPerFrame(m), "allocs/frame"},
			"heap_peak_mb":     {float64(m.heapPeak) / (1 << 20), "MiB"},
			"setup_s":          {pct(setups, 50), "s"},
			"checkpoint_ms":    {pct(m.ckptMs, 50), "ms"},
			"restart_ms":       {pct(m.restartMs, 50), "ms"},
			"snapshot_bytes":   {pct(m.snapBytes, 50), "B"},
		},
	}
	return res, nil
}

// runTraced runs the seed's fixed work four times on fresh worlds: untraced
// (the per-frame cost the ledger must reconcile with, and the latency
// modes) and with spans, taking turns; then as the durable/replica pair;
// then on a bare proxy with the isolated arms. All four must produce the
// same decision digest.
func runTraced(sp *spec, seed int64, seconds int, state string) (result, error) {
	// Each world does a quarter of an untraced run's work, so that the four
	// take about as long as one untraced run.
	quarter := *sp
	quarter.cycles = (sp.cycles + 3) / 4
	sp, seconds = &quarter, (seconds+3)/4
	fmt.Printf("traced: each world does the work of --seconds %d and %d trailing recovery cycles\n", seconds, sp.cycles)
	var (
		ph                [4]phase
		traces            [4]*trace
		failed, attempted int64
	)
	// The untraced world and the spans world, whose per-frame costs the
	// ledger compares, run interleaved; then the pair world, then the arms.
	groups := [][]runKind{{untraced, spans}, {pair}, {arms}}
	i := 0
	for _, kinds := range groups {
		var ws []*world
		var modes []bool
		for _, kind := range kinds {
			w, err := setup(sp, seed, seconds, state, kind)
			if err != nil {
				return result{}, err
			}
			ws = append(ws, w)
			modes = append(modes, kind == untraced)
		}
		ps, err := runPhases(ws, seconds, modes)
		for _, w := range ws {
			w.close()
		}
		if err != nil {
			return result{}, err
		}
		for j, w := range ws {
			ph[i], traces[i] = ps[j], w.tr
			failed += w.setupErrs + ps[j].m.wrong
			attempted += w.setupOps + ps[j].m.attempted
			i++
		}
	}
	pu, pt := ph[0], ph[1]
	t, c, a := traces[1], traces[2], traces[3]

	// Ledger: self time per frame of each layer on the blocking path, over
	// the same fastest steps frames_per_s counts.
	decode, record, engine, attest, house, _ := t.perFrame(sp.batch)
	// The pair world splits the engine span: the replica's share of the
	// two engine calls made under the same conditions is the core's.
	_, _, pairEngine, _, _, pairCore := c.perFrame(sp.batch)
	coreNs := engine * pairCore / pairEngine
	durableSelf := engine - coreNs
	layers := []struct {
		name string
		ns   float64
	}{
		{"packet.decode", decode},
		{"devices.record (resolve + normalise)", record},
		{"durable (WAL append, lock, clock pin)", durableSelf},
		{"core.process (replica's share)", coreNs},
		{"attestations (durable + core)", attest},
		{"housekeeping (sweep + tick)", house},
	}
	var sum float64
	negative := false
	fmt.Printf("ledger: self time per frame over the fastest %.0f%% of steps\n", 100*keepSteps)
	for _, l := range layers {
		fmt.Printf("  %-40s %9.1f ns\n", l.name, l.ns)
		sum += l.ns
		negative = negative || l.ns < 0
	}
	untracedNs := 1e9 / trimmedRate(pu.m.stepNs, sp.batch)
	resid := (sum - untracedNs) / untracedNs
	// The sum checks that the spans cover the whole step; how the engine's
	// span splits between durable and core is checked only by its sign.
	ledgerOK := !negative && (!sp.reconciles() || math.Abs(resid) <= ledgerTolerance)
	verdict := "within"
	if math.Abs(resid) > ledgerTolerance {
		verdict = "OUTSIDE"
	}
	overhead := 1e9/trimmedRate(pt.m.stepNs, sp.batch) - untracedNs
	fmt.Printf("  %-40s %9.1f ns\n", "sum", sum)
	fmt.Printf("  %-40s %9.1f ns (1/frames_per_s)\n", "untraced per-frame cost", untracedNs)
	fmt.Printf("  residual %+.1f%%, %s the ±%.0f%% tolerance (binding on heartbeat and interactive); negative self time: %v\n", 100*resid, verdict, 100*ledgerTolerance, negative)
	fmt.Printf("  tracing overhead (spans world minus untraced per-frame cost) %+.1f ns\n", overhead)
	fmt.Printf("  pair world: durable manager %.1f ns, replica core.Proxy %.1f ns per frame\n", pairEngine, pairCore)
	fmt.Println("inside core, from isolated arms on the same inputs:")
	fmt.Printf("  flows.match %.1f ns/frame; features.extract %.1f ns and ml.infer %.1f ns per model event (%d events)\n",
		div(a.matchNs, a.matchFrames), div(a.extractNs, a.modelEvents), div(a.inferNs, a.modelEvents), a.modelEvents)
	fmt.Printf("  sensors.validate %.1f ns and core attestation decode %.1f ns per attestation (%d)\n",
		div(a.validateNs, a.attestOps), div(a.attestDecodeNs, a.attestOps), a.attestOps)
	printModes(pu.m)
	fmt.Println("unmeasured: swap relearn and shadow scoring (off in the default configuration); the quicfast transport")

	digestOK := true
	fmt.Print("digests:")
	for _, p := range ph {
		fmt.Printf(" %016x", uint64(p.digest))
		digestOK = digestOK && p.digest == pu.digest
	}
	fmt.Printf(" (untraced, spans, pair, arms), equal=%v\n", digestOK)
	if a.armWrong > 0 {
		fmt.Fprintf(os.Stderr, "isolated arms disagreed with the pipeline %d times\n", a.armWrong)
	}
	failed += a.armWrong
	attempted += a.attestOps + a.modelEvents
	// The digest comparison and the ledger are one check each.
	for _, ok := range []bool{digestOK, ledgerOK} {
		attempted++
		if !ok {
			failed++
		}
	}
	res := result{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics: map[string]metric{
			"packet.decode_ns":             {decode, "ns/frame"},
			"packet.allocs":                {float64(a.decodeAllocs) / float64(a.allocFrames), "allocs/frame"},
			"devices.record_ns":            {record, "ns/frame"},
			"flows.match_ns":               {div(a.matchNs, a.matchFrames), "ns/frame"},
			"flows.rule_hit_ratio":         {pt.ruleHits, "frac"},
			"core.process_ns_per_frame":    {coreNs, "ns/frame"},
			"core.allocs_per_frame":        {float64(a.coreAllocs) / float64(a.allocFrames), "allocs/frame"},
			"ml.infer_ns_per_event":        {div(a.inferNs, a.modelEvents), "ns/event"},
			"features.extract_ns":          {div(a.extractNs, a.modelEvents), "ns/event"},
			"sensors.validate_ns":          {div(a.validateNs, a.attestOps), "ns/attest"},
			"core.attest_decode_ns":        {div(a.attestDecodeNs, a.attestOps), "ns/attest"},
			"durable.append_ns_per_op":     {durableSelf * float64(sp.batch), "ns/op"},
			"durable.wal_bytes_per_frame":  {float64(a.walBytes) / float64(a.frames), "B/frame"},
			"durable.segment_rotations":    {float64(pu.m.rotations), "count"},
			"durable.encode_state_ms":      {pct(t.encodeMs, 50), "ms"},
			"durable.snapshot_write_ms":    {pct(t.writeMs, 50), "ms"},
			"durable.build_ms":             {pct(t.buildMs, 50), "ms"},
			"durable.restore_ms":           {pct(t.restoreMs, 50), "ms"},
			"durable.replay_ms":            {pct(t.replayMs, 50), "ms"},
			"artifact.unique_arenas":       {float64(t.uniqueArenas), "count"},
			"artifact.arena_refs":          {float64(t.arenaRefs), "count"},
			"runtime.gc_cycles":            {float64(pu.gcCycles), "count"},
			"runtime.gc_pause_total_ms":    {float64(pu.gcPauseNs) / 1e6, "ms"},
			"ledger.layers_ns_per_frame":   {sum, "ns/frame"},
			"ledger.untraced_ns_per_frame": {untracedNs, "ns/frame"},
			"ledger.residual_abs_frac":     {math.Abs(resid), "frac"},
			"ledger.trace_overhead_ns":     {overhead, "ns/frame"},
			"tail.batch_p90_us":            {us(pct(pu.m.batchNs, 90)), "us"},
			"tail.attest_p90_us":           {us(pct(pu.m.attestNs, 90)), "us"},
			"tail.batch_p99_us":            {us(pct(pu.m.batchNs, 99)), "us"},
			"tail.attest_p99_us":           {us(pct(pu.m.attestNs, 99)), "us"},
		},
	}
	return res, nil
}

// reconciles reports whether the ledger's sum must meet the tolerance: on
// the frame workloads, whose steps are what frames_per_s measures.
func (sp *spec) reconciles() bool { return sp.batchesPerS > 0 }

// printModes reports which latency mode each batch percentile falls in:
// batches during which a GC cycle ran, batches whose WAL append rotated a
// segment (an fsync), and plain batches.
func printModes(m *measure) {
	type tagged struct {
		ns   int64
		mode uint8
	}
	ts := make([]tagged, len(m.batchNs))
	for i := range ts {
		ts[i] = tagged{int64(m.batchNs[i]), m.modes[i]}
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i].ns < ts[j].ns })
	share := func(lo, hi int) string {
		var gc, rot, plain int
		for _, t := range ts[lo:hi] {
			switch {
			case t.mode&modeRotation != 0:
				rot++
			case t.mode&modeGC != 0:
				gc++
			default:
				plain++
			}
		}
		n := float64(hi - lo)
		return fmt.Sprintf("%.0f%% plain, %.0f%% gc, %.0f%% wal rotation (%d batches)", 100*float64(plain)/n, 100*float64(gc)/n, 100*float64(rot)/n, hi-lo)
	}
	n := len(ts)
	if n < 100 {
		return
	}
	fmt.Printf("modes (untraced phase): around batch_p50_us %s\n", share(n*49/100, n*51/100))
	fmt.Printf("modes (untraced phase): around batch_p75_us %s\n", share(n*74/100, n*76/100))
	fmt.Printf("modes (untraced phase): around tail.batch_p90_us %s\n", share(n*89/100, n*91/100))
	fmt.Printf("modes (untraced phase): at or above tail.batch_p99_us %s\n", share(n*99/100, n))
}

func us(ns float64) float64 { return ns / 1e3 }

// pct is the p-th percentile of xs.
func pct(xs []float64, p float64) float64 { return stats.Percentile(xs, p) }

// keepSteps is the share of steps frames_per_s counts. On a shared VM the
// slowest steps are dominated by host preemption (vCPU steal), alongside
// WAL rotation fsyncs and GC; the latency tails and the mode report show
// them, and the throughput is taken over the rest so that it stays steady.
const keepSteps = 0.95

// trimmedRate returns frames per second over the fastest keepSteps of the
// steps (a batch plus the attestations and housekeeping around it).
func trimmedRate(stepNs []float64, batch int) float64 {
	s := append([]float64(nil), stepNs...)
	sort.Float64s(s)
	n := int(float64(len(s)) * keepSteps)
	var sum float64
	for _, v := range s[:n] {
		sum += v
	}
	return float64(n*batch) / (sum / 1e9)
}

func div(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func round2(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(int64(x*100+0.5)) / 100
	}
	return out
}

// fsType names the filesystem holding the durable state.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{0xEF53: "ext4", 0x794c7630: "overlayfs", 0x01021994: "tmpfs", 0x58465342: "xfs", 0x9123683E: "btrfs"}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}
