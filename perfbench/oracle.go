package main

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"fiat/internal/core"
	"fiat/internal/devices"
	"fiat/internal/events"
	"fiat/internal/flows"
)

// oracle is an independent model of FIAT's verdict rules (paper §2.1,
// Fig 4 and §5.4) for the workloads' traffic. During the bootstrap window
// every packet passes and each control flow learns its periods: the
// quantized inter-arrival times (1 s quantum) seen twice. Afterwards a
// control packet is a rule hit when its interval from the flow's previous
// packet quantizes to a period; every other packet joins the device's
// current event (a gap of 5 s or more starts a new one). An event's first
// grace-N−1 packets pass, the N-th decides — non-manual passes; manual
// passes only with a live human validation, else it drops or, in degraded
// mode, is held; three drops in a minute lock the device — and later
// packets follow. Whether an event is manual is the device classifier's
// verdict on the event's head as the oracle itself groups it, as the
// humanness verdict of an attestation is the validator's. The oracle also
// hashes every decision it is shown, so two runs of one seed can be
// compared by digest.
type oracle struct {
	started   time.Time
	bootstrap time.Duration
	pending   time.Duration // degraded-mode hold window (0 = strict)
	devs      []devModel    // by device index
	held      []heldEvent
	digest    digest

	// Counters the run checks against the proxy's own stats.
	heldTotal, expiredTotal, admittedTotal int
	reasons                                map[core.Reason]int
	// classified is the device whose event the last frame call classified
	// by a trained model (nil if none), for the traced model arm.
	classified *devModel
}

const (
	lockoutThreshold = 3
	lockoutWindow    = time.Minute
	skewTolerance    = time.Second
)

type devModel struct {
	dev        *device
	clf        core.EventClassifier
	rules      []flowRule
	valid      []validation
	drops      []time.Time
	locked     bool
	evPackets  int
	evDecided  bool
	evVerdict  core.Verdict
	lastEvTime time.Time
	hasEv      bool
	head       []flows.Record
	ev         events.Event
}

type validation struct {
	at    time.Time
	human bool
}

type heldEvent struct {
	dev              *device
	decided, expires time.Time
}

// newOracle models devs, each judged by clfs[d.prof]'s verdicts.
func newOracle(started time.Time, bootstrap, pending time.Duration, devs []*device, clfs map[*devices.Profile]core.EventClassifier) *oracle {
	o := &oracle{started: started, bootstrap: bootstrap, pending: pending, digest: newDigest(), devs: make([]devModel, len(devs)), reasons: map[core.Reason]int{}}
	for i, d := range devs {
		o.devs[i] = devModel{dev: d, clf: clfs[d.prof], rules: make([]flowRule, len(d.grp.flows)), head: make([]flows.Record, 0, d.graceN)}
	}
	return o
}

// frame returns the expected decision for one frame decided at now.
func (o *oracle) frame(f *frameRef, now time.Time) core.Decision {
	d := o.decide(f, now)
	o.reasons[d.Reason]++
	return d
}

// census lists how many frames the oracle expected to get each reason.
func (o *oracle) census() string {
	var names []string
	var total int
	for r, n := range o.reasons {
		names = append(names, string(r))
		total += n
	}
	sort.Strings(names)
	out := fmt.Sprintf("%d frames:", total)
	for _, r := range names {
		out += fmt.Sprintf(" %s %.4f", r, float64(o.reasons[core.Reason(r)])/float64(total))
	}
	return out
}

func (o *oracle) decide(f *frameRef, now time.Time) core.Decision {
	o.classified = nil
	m := &o.devs[f.dev.idx]
	at := f.at.UnixNano()
	if now.Sub(o.started) < o.bootstrap {
		if f.flow >= 0 {
			m.rules[f.flow].learn(at)
		}
		return core.Decision{Verdict: core.Allow, Reason: core.ReasonBootstrap}
	}
	if f.flow >= 0 && m.rules[f.flow].match(at) {
		return core.Decision{Verdict: core.Allow, Reason: core.ReasonRuleHit}
	}
	if !m.hasEv || f.at.Sub(m.lastEvTime) >= events.DefaultGap {
		m.evPackets, m.evDecided, m.head = 0, false, m.head[:0]
	}
	m.lastEvTime, m.hasEv = f.at, true
	m.evPackets++
	if m.evDecided {
		return core.Decision{Verdict: m.evVerdict, Reason: core.ReasonEventFollow}
	}
	rec := *f.rec
	rec.Time = f.at
	m.head = append(m.head, rec)
	if m.evPackets < f.dev.graceN {
		return core.Decision{Verdict: core.Allow, Reason: core.ReasonGraceN}
	}
	var d core.Decision
	switch {
	case m.locked:
		d = core.Decision{Verdict: core.Drop, Reason: core.ReasonLocked}
	case !m.isManual():
		d = core.Decision{Verdict: core.Allow, Reason: core.ReasonNonManual}
	case m.humanAt(now):
		d = core.Decision{Verdict: core.Allow, Reason: core.ReasonHumanOK}
	case o.pending > 0:
		d = core.Decision{Verdict: core.Drop, Reason: core.ReasonPendingHold}
		o.held = append(o.held, heldEvent{dev: f.dev, decided: now, expires: now.Add(o.pending)})
		o.heldTotal++
	default:
		d = core.Decision{Verdict: core.Drop, Reason: core.ReasonNoHuman}
		m.registerDrop(now)
	}
	if !m.locked && !f.dev.prof.SimpleRule {
		o.classified = m
	}
	m.evDecided, m.evVerdict = true, d.Verdict
	return d
}

// isManual is the device classifier's verdict on the current event's head.
func (m *devModel) isManual() bool {
	m.ev.Packets, m.ev.Start, m.ev.End = m.head, m.head[0].Time, m.head[len(m.head)-1].Time
	return m.clf.IsManual(&m.ev)
}

func (m *devModel) humanAt(now time.Time) bool {
	for _, v := range m.valid {
		if v.human && now.Sub(v.at) < core.ValidationTTL && v.at.Before(now.Add(skewTolerance)) {
			return true
		}
	}
	return false
}

func (m *devModel) registerDrop(now time.Time) {
	keep := m.drops[:0]
	for _, t := range m.drops {
		if now.Sub(t) < lockoutWindow {
			keep = append(keep, t)
		}
	}
	m.drops = append(keep, now)
	if len(m.drops) >= lockoutThreshold {
		m.locked = true
	}
}

// attest records an attestation applied at now, whose humanness verdict is
// the model's verdict on its window, and returns that verdict.
func (o *oracle) attest(d *device, human bool, now time.Time) bool {
	m := &o.devs[d.idx]
	keep := m.valid[:0]
	for _, v := range m.valid {
		if now.Sub(v.at) < core.ValidationTTL {
			keep = append(keep, v)
		}
	}
	m.valid = append(keep, validation{at: now, human: human})
	if human && o.pending > 0 {
		kept := o.held[:0]
		for _, h := range o.held {
			if h.dev == d && !now.Before(h.decided) && now.Before(h.expires) {
				o.admittedTotal++
				continue
			}
			kept = append(kept, h)
		}
		o.held = kept
	}
	return human
}

// sweep settles held events whose window closed by now; each expiry counts
// toward the device's lockout.
func (o *oracle) sweep(now time.Time) {
	kept := o.held[:0]
	for _, h := range o.held {
		if !now.Before(h.expires) {
			o.devs[h.dev.idx].registerDrop(now)
			o.expiredTotal++
			continue
		}
		kept = append(kept, h)
	}
	o.held = kept
}

// digest is a 64-bit FNV-1a hash over the decision stream.
type digest uint64

func newDigest() digest { return 14695981039346656037 }

func (h *digest) add(b byte) {
	*h = (*h ^ digest(b)) * 1099511628211
}

func (h *digest) decision(d core.Decision) {
	h.add(byte(d.Verdict))
	for i := 0; i < len(d.Reason); i++ {
		h.add(d.Reason[i])
	}
	h.add(0)
}

func (h *digest) attest(human bool) {
	h.add('A')
	if human {
		h.add(1)
	} else {
		h.add(0)
	}
}

// flowRule models one control flow's bucket in a device's rule table.
type flowRule struct {
	last    int64 // unix nanos of the flow's previous packet
	has     bool  // the flow was seen in the bootstrap window
	seen    []int64
	periods []int64
}

// quantum is the rule table's inter-arrival resolution (the proxy's
// default, flows.DefaultIATQuantum).
const quantum = int64(time.Second)

func quantize(d int64) int64 { return (max(d, 0) + quantum/2) / quantum }

// learn records one bootstrap packet: an interval seen twice is a period.
func (r *flowRule) learn(at int64) {
	if r.has {
		q := quantize(at - r.last)
		switch {
		case slices.Contains(r.periods, q):
		case slices.Contains(r.seen, q):
			r.periods = append(r.periods, q)
		default:
			r.seen = append(r.seen, q)
		}
	}
	r.last, r.has = at, true
}

// match reports whether a packet after the bootstrap window is a rule hit.
// A flow never seen while learning has no bucket and tracks nothing.
func (r *flowRule) match(at int64) bool {
	if !r.has {
		return false
	}
	hit := slices.Contains(r.periods, quantize(at-r.last))
	r.last = at
	return hit
}
