package main

import (
	"runtime"
	"sort"
	"time"

	"fiat/internal/core"
	"fiat/internal/devices"
	"fiat/internal/durable"
	"fiat/internal/features"
	"fiat/internal/ml"
)

// trace is a traced world's ledger. It times each layer from outside, at
// the calls into it, per step (a batch plus the attestations and
// housekeeping around it). The spans world adds nothing else to the
// untraced loop but these clock reads, and times the durable manager. The
// pair world feeds every batch to the durable manager and to a replica
// bare core.Proxy, so the durable manager's own share of its span is the
// difference of the two. The arms world drives a bare proxy and runs the
// isolated arms on the same inputs — compiled-rule matching, feature
// extraction and inference at every model decision, the validator,
// attestation decoding — samples allocations, and counts WAL bytes.
type trace struct {
	cur   stepSpans
	steps []stepSpans

	attestOps, frames int64
	armWrong          int64 // isolated arms disagreeing with the pipeline

	matchNs, matchFrames int64

	extractNs, inferNs, modelEvents int64
	models                          map[*devices.Profile]ml.CompiledModel
	featBuf                         []float64

	validateNs, attestDecodeNs int64

	walBytes int64

	decodeAllocs, coreAllocs uint64
	allocFrames              int64
	ms                       runtime.MemStats

	lastEncodeMs                 float64
	encodeMs, writeMs            []float64
	buildMs, restoreMs, replayMs []float64
	uniqueArenas, arenaRefs      int
}

// stepSpans is one step's time in each layer, in nanoseconds; core is the
// pair world's replica proxy.
type stepSpans struct {
	decode, record, engine, attest, house, core int64
}

func (s stepSpans) total() int64 { return s.decode + s.record + s.engine + s.attest + s.house + s.core }

func newTrace() *trace {
	return &trace{featBuf: make([]float64, features.Dim), models: map[*devices.Profile]ml.CompiledModel{}}
}

func (t *trace) mallocs() uint64 {
	runtime.ReadMemStats(&t.ms)
	return t.ms.Mallocs
}

func (t *trace) endStep() {
	t.steps = append(t.steps, t.cur)
	t.cur = stepSpans{}
}

// perFrame returns each layer's mean time per frame over the fastest
// keepSteps of the steps, the same steps frames_per_s counts.
func (t *trace) perFrame(batch int) (decode, record, engine, attest, house, core float64) {
	s := append([]stepSpans(nil), t.steps...)
	sort.Slice(s, func(i, j int) bool { return s[i].total() < s[j].total() })
	s = s[:int(float64(len(s))*keepSteps)]
	var sum stepSpans
	for _, x := range s {
		sum.decode += x.decode
		sum.record += x.record
		sum.engine += x.engine
		sum.attest += x.attest
		sum.house += x.house
		sum.core += x.core
	}
	fr := float64(len(s) * batch)
	return float64(sum.decode) / fr, float64(sum.record) / fr, float64(sum.engine) / fr, float64(sum.attest) / fr, float64(sum.house) / fr, float64(sum.core) / fr
}

func ns(a, b time.Time) int64 { return b.Sub(a).Nanoseconds() }

// batch records one batch's spans — decode [t0,t1), resolution [t2,t3),
// engine [t3,t4) — and, in the arms world, runs the rules arm on it.
func (t *trace) batch(w *world, t0, t1, t2, t3, t4 time.Time) {
	n := len(w.refs)
	t.cur.decode += ns(t0, t1)
	t.cur.record += ns(t2, t3)
	t.cur.engine += ns(t3, t4)
	t.frames += int64(n)
	if w.kind != arms {
		return
	}

	// Rules arm: compiled-rule matching of the batch's records against the
	// engine's frozen tables, with a private arrival state.
	p := w.eng.Proxy()
	for i := range w.refs {
		d := w.refs[i].dev
		if d.compiled == nil {
			if c, ok := p.CompiledRules(d.name); ok && c != nil {
				d.compiled, d.arrival = c, c.NewArrivalState()
			}
		}
	}
	m0 := time.Now()
	for i := range w.refs {
		if d := w.refs[i].dev; d.compiled != nil {
			matchSink = d.compiled.Match(&w.ins[i].Rec, d.arrival)
			t.matchFrames++
		}
	}
	t.matchNs += ns(m0, time.Now())

	t.walOp(&durable.Op{Kind: durable.OpBatch, Time: w.now(), Batch: w.ins[:n]})
}

// modelArm times feature extraction and compiled inference on the head of
// an event the oracle just classified with the device's trained model; the
// arm's verdict must equal the oracle's.
func (t *trace) modelArm(w *world, m *devModel, manual bool) {
	p := m.dev.prof
	model := t.models[p]
	if model == nil {
		model = w.models[p].Compiled().Clone()
		t.models[p] = model
	}
	e0 := time.Now()
	t.featBuf = features.ExtractInto(&m.ev, t.featBuf)
	e1 := time.Now()
	got := model.Infer(t.featBuf) == 2
	e2 := time.Now()
	t.extractNs += ns(e0, e1)
	t.inferNs += ns(e1, e2)
	t.modelEvents++
	if got != manual {
		t.armWrong++
	}
}

// walOp counts the WAL bytes one logged operation takes: the frame header
// and the payload.
func (t *trace) walOp(op *durable.Op) {
	t.walBytes += 8 + int64(len(durable.EncodeOp(op)))
}

// attest records one attestation span and, in the arms world, runs the
// validator and decode arms on it.
func (t *trace) attest(w *world, payload []byte, feat []float64, got bool, el int64) {
	t.cur.attest += el
	t.attestOps++
	if w.kind != arms {
		return
	}
	v0 := time.Now()
	human := w.validator.Validate(feat)
	v1 := time.Now()
	_, err := core.DecodeAttestation(payload, w.proxyKS)
	v2 := time.Now()
	t.validateNs += ns(v0, v1)
	t.attestDecodeNs += ns(v1, v2)
	if err != nil || human != got {
		t.armWrong++
	}
	t.walOp(&durable.Op{Kind: durable.OpAttestation, Time: w.now(), Payload: payload})
}

func (t *trace) sweep(w *world, el int64) {
	t.cur.house += el
	if w.kind == arms {
		t.walOp(&durable.Op{Kind: durable.OpSweep, Time: w.now()})
	}
}

// encodeArm times the proxy's state encoding, the CPU half of a checkpoint.
func (t *trace) encodeArm(w *world) {
	runtime.GC()
	e0 := time.Now()
	encodeSink = w.mgr.Proxy().EncodeState()
	t.lastEncodeMs = float64(time.Since(e0).Nanoseconds()) / 1e6
	encodeSink = nil
}

func (t *trace) checkpointed(ck time.Duration) {
	ms := float64(ck.Nanoseconds()) / 1e6
	t.encodeMs = append(t.encodeMs, t.lastEncodeMs)
	t.writeMs = append(t.writeMs, ms-t.lastEncodeMs)
}

// restarted splits one reopen into proxy build, snapshot restore (up to
// the first replayed op, a cheap sweep), and WAL replay.
func (t *trace) restarted(w *world) {
	t.buildMs = append(t.buildMs, float64(w.buildNs)/1e6)
	t.restoreMs = append(t.restoreMs, float64(w.replayFirst.Sub(w.buildEnd).Nanoseconds())/1e6)
	t.replayMs = append(t.replayMs, float64(w.replayLast.Sub(w.replayFirst).Nanoseconds())/1e6)
	st := w.store.Stats()
	t.uniqueArenas, t.arenaRefs = st.UniqueRules, st.RuleRefs
}

// Sinks keep the isolated arms' results observable to the compiler.
var (
	matchSink  bool
	encodeSink []byte
)
