package main

import (
	"cmp"
	"errors"
	"fmt"
	"net/netip"
	"slices"
	"sort"
	"time"

	"fiat/internal/core"
	"fiat/internal/devices"
	"fiat/internal/events"
	"fiat/internal/flows"
	"fiat/internal/packet"
	"fiat/internal/simclock"
)

// The workloads' traffic is the paper's testbed: every device is one of the
// calibrated profiles of devices.StandardTestbed, and every packet comes
// from Profile.Generate — control flows with their own periods, sizes and
// timer drift, unpredictable control events and manual commands with the
// profiles' shapes and confusion rates. The benchmark only chooses when
// events happen (time compression) and which of them a phone attests.

var gatewayMAC = packet.MAC{2, 0, 0, 0, 0, 1}

// stableFlows returns a copy of p that keeps only the control flows with a
// stable source port and no unpredictable control events of its own. The
// proxy built as fiat-proxy builds it buckets flows on the 6-tuple
// (core.Config.Mode's zero value, flows.ModeClassic), where a flow that
// takes a fresh source port per packet can never be learned.
func stableFlows(p *devices.Profile) *devices.Profile {
	q := *p
	q.Control = nil
	for _, cf := range p.Control {
		if !cf.FreshPort {
			q.Control = append(q.Control, cf)
		}
	}
	q.UnpredControlPerDay = 0
	return &q
}

// eventsOnly returns a copy of p with no control flows, no unpredictable
// control events and no routines: Generate then emits only what the
// caller's options ask for.
func eventsOnly(p *devices.Profile) *devices.Profile {
	q := *p
	q.Control = nil
	q.UnpredControlPerDay = 0
	q.RoutinesPerDay = 0
	return &q
}

// poolRate is the daily event rate the event pools are drawn at: events
// five minutes apart on average, so few of them run into each other.
const poolRate = 288

// trainingEvents draws a day of a model-classified profile's unpredictable
// traffic — control events, routines and manual commands — grouped into
// labeled events, for the profile's event classifier.
func trainingEvents(p *devices.Profile, rng *simclock.RNG) []*events.Event {
	q := eventsOnly(p)
	q.UnpredControlPerDay = poolRate
	q.RoutinesPerDay = poolRate / 3
	recs := q.Generate(rng, devices.TraceOptions{
		Start: simclock.Epoch, Duration: 24 * time.Hour, ManualPerDay: poolRate, Routines: true,
	})
	return events.Group(recs, events.DefaultGap)
}

// evShape is one unpredictable event drawn from a profile, with its packet
// times as offsets from the event's start.
type evShape struct {
	recs  []flows.Record // as generated
	seen  []flows.Record // as the gateway sees their frames
	label bool           // ground truth: a manual event
	dur   time.Duration  // offset of the last packet

	// The device classifier's verdict at the decision point (the grace-N-th
	// packet), when the event reaches it on its own.
	decided  bool
	manual   bool
	decideAt time.Duration
}

// eventPool draws n events of one class from profile p: unpredictable
// control events (manual false) or manual commands (manual true), each with
// the profile's shape confusion.
func eventPool(p *devices.Profile, rng *simclock.RNG, manual bool, n int) ([]*evShape, error) {
	q := eventsOnly(p)
	opt := devices.TraceOptions{Start: simclock.Epoch, Duration: time.Duration(2*n) * 24 * time.Hour / poolRate}
	if manual {
		opt.ManualPerDay = poolRate
	} else {
		q.UnpredControlPerDay = poolRate
	}
	evs := events.Group(q.Generate(rng, opt), events.DefaultGap)
	if len(evs) < n {
		return nil, fmt.Errorf("%s: %d events drawn, want %d", p.Name, len(evs), n)
	}
	var out []*evShape
	for _, e := range evs[:n] {
		sh := &evShape{label: e.Category == flows.CategoryManual, dur: e.End.Sub(e.Start)}
		for _, r := range e.Packets {
			r.Time = simclock.Epoch.Add(r.Time.Sub(e.Start))
			sh.recs = append(sh.recs, r)
		}
		out = append(out, sh)
	}
	return out, nil
}

// classify sets the shape's verdict at the decision point under the
// device's classifier and grace N.
func (sh *evShape) classify(clf core.EventClassifier, graceN int) {
	if len(sh.seen) < graceN {
		return
	}
	head := sh.seen[:graceN]
	ev := events.Event{Packets: head, Start: head[0].Time, End: head[graceN-1].Time}
	sh.decided, sh.manual = true, clf.IsManual(&ev)
	sh.decideAt = head[graceN-1].Time.Sub(simclock.Epoch)
}

// ctlFlow is one control flow of a device group.
type ctlFlow struct {
	rec  flows.Record // as generated (its Time aside)
	seen flows.Record // as the gateway sees its frame
}

// ctlAt is one control packet of a group's timeline.
type ctlAt struct {
	at   int64 // unix nanos
	flow int32
}

// group is a set of devices of one profile booted together: they share one
// generated control timeline, so they learn identical rule tables and share
// compiled arenas in the artifact store, as a fleet of identical firmware
// does.
type group struct {
	prof  *devices.Profile
	flows []ctlFlow
	tl    []ctlAt
	miss  []int64 // post-bootstrap packets the rule model predicts no hit for
	devs  []*device
}

// buildTimeline generates the group's control traffic over [Epoch,
// Epoch+span) and predicts, with the oracle's rule model, which packets
// after the bootstrap window are no rule hits; events are kept away from
// those, so an event's head is the event's own packets.
func (g *group) buildTimeline(rng *simclock.RNG, span, bootstrap time.Duration) error {
	recs := g.prof.Generate(rng, devices.TraceOptions{Start: simclock.Epoch, Duration: span})
	index := map[flows.Key]int32{}
	g.tl = make([]ctlAt, 0, len(recs))
	for _, r := range recs {
		k := flows.KeyOf(flows.ModeClassic, r)
		fi, ok := index[k]
		if !ok {
			fi = int32(len(g.flows))
			index[k] = fi
			g.flows = append(g.flows, ctlFlow{rec: r})
		}
		g.tl = append(g.tl, ctlAt{at: r.Time.UnixNano(), flow: fi})
	}
	if len(g.flows) != len(g.prof.Control) {
		return fmt.Errorf("%s: %d control flows generated, profile has %d", g.prof.Name, len(g.flows), len(g.prof.Control))
	}
	rules := make([]flowRule, len(g.flows))
	boot := simclock.Epoch.Add(bootstrap).UnixNano()
	for _, c := range g.tl {
		if c.at < boot {
			rules[c.flow].learn(c.at)
		} else if !rules[c.flow].match(c.at) {
			g.miss = append(g.miss, c.at)
		}
	}
	return nil
}

// missNear returns a predicted rule miss of the group in [lo, hi).
func (g *group) missNear(lo, hi time.Time) (time.Time, bool) {
	i := sort.Search(len(g.miss), func(i int) bool { return g.miss[i] >= lo.UnixNano() })
	if i < len(g.miss) && g.miss[i] < hi.UnixNano() {
		return time.Unix(0, g.miss[i]).UTC(), true
	}
	return time.Time{}, false
}

// device is one protected device.
type device struct {
	idx    int
	name   string
	ip     netip.Addr
	framer *devices.Framer
	prof   *devices.Profile
	grp    *group
	ctl    [][]byte // per control flow of its group, its frame
	graceN int
	app    string
	tele   []devEvent // unpredictable control events it can send
	cmd    []devEvent // manual commands it can receive (home only)

	// Home scheduling: the next event's start and the last expected drop.
	next     time.Time
	lastDrop time.Time
	// Fleet scheduling: the telemetry event's offset inside a window.
	teleOff time.Duration

	// Set in the traced arms world: the engine's compiled rules and a
	// private arrival state for the isolated match arm.
	compiled *flows.CompiledRules
	arrival  *flows.ArrivalState
}

// devEvent is an event shape rendered as one device's frames.
type devEvent struct {
	sh     *evShape
	frames [][]byte
}

func deviceIP(i int) netip.Addr {
	return netip.AddrFrom4([4]byte{10, byte(1 + i>>16), byte(i >> 8), byte(i)})
}

func deviceMAC(i int) packet.MAC {
	return packet.MAC{2, 0x10, 0, byte(i >> 16), byte(i >> 8), byte(i)}
}

func newDevice(i int, p *devices.Profile, g *group) *device {
	d := &device{
		idx: i, name: fmt.Sprintf("%s-%04d", p.Name, i), ip: deviceIP(i), prof: p, grp: g,
		framer: devices.NewFramer(deviceIP(i), deviceMAC(i), gatewayMAC),
		graceN: graceN(p),
		app:    fmt.Sprintf("com.%s.app%d", p.Name, i),
	}
	g.devs = append(g.devs, d)
	return d
}

// graceN is how many packets of an event pass before it is classified: the
// first for the simple devices' size rule, five (the deployed setting) for
// the trained models.
func graceN(p *devices.Profile) int {
	if p.SimpleRule {
		return 1
	}
	return 5
}

// render builds the device's frames for its group's control flows.
func (d *device) render() {
	for _, f := range d.grp.flows {
		d.ctl = append(d.ctl, d.framer.Frame(f.rec))
	}
}

func (d *device) event(sh *evShape) devEvent {
	e := devEvent{sh: sh}
	for _, r := range sh.recs {
		e.frames = append(e.frames, d.framer.Frame(r))
	}
	return e
}

// seenView returns the record the gateway derives from rec's frame: the
// frame is built by a framer for a device at ip, decoded, and normalised.
// Framing may round a size up or leave out a TLS record; the rest must
// survive, else the error says what did not.
func seenView(rec flows.Record, ip netip.Addr, resolve func(netip.Addr) string) (flows.Record, error) {
	data := devices.NewFramer(ip, deviceMAC(0), gatewayMAC).Frame(rec)
	p := packet.Decode(data, packet.CaptureInfo{Timestamp: rec.Time, Length: len(data), CaptureLength: len(data)})
	got, ok := devices.RecordFromFrame(p, ip, resolve)
	if !ok {
		return got, errors.New("frame is not the device's")
	}
	if got.Proto != rec.Proto || got.Dir != rec.Dir || got.RemoteIP != rec.RemoteIP || got.RemoteDomain != rec.RemoteDomain ||
		got.LocalPort != rec.LocalPort || got.RemotePort != rec.RemotePort || got.Size < rec.Size {
		return got, fmt.Errorf("record %+v reads back as %+v", rec, got)
	}
	return got, nil
}

// frameRef is one frame of the workload with what the oracle needs: its
// device, capture instant, record, and the attestation sent with it.
type frameRef struct {
	data   []byte
	at     time.Time
	dev    *device
	rec    *flows.Record // as the gateway sees it (its Time aside)
	flow   int32         // control flow index, or -1 in an event
	first  bool          // the first packet of a scheduled event
	attest uint8
	win    int // index into the phone's window pool of that kind
}

// Attestation kinds sent with the first frame of an event.
const (
	attestNone uint8 = iota
	attestHuman
	attestMachine
)

// ctlRef is one control packet of the merged timeline of every group.
type ctlRef struct {
	at   int64
	g    int32
	flow int32
}

// stream serves the workload's frames in capture order, one window of
// virtual time at a time: every group's control packets, expanded to the
// group's devices, and the window's events from the scheduler. Frames
// falling after the window carry over to the next one. Buffers are reused,
// so serving frames allocates nothing once they have grown.
type stream struct {
	devs   []*device
	groups []*group
	ctl    []ctlRef
	ci     int
	win    time.Duration
	next   time.Time // start of the next window
	n      int       // windows served
	queue  []frameRef
	carry  []frameRef
	pos    int
	sched  scheduler
}

// scheduler appends a window's event frames to the queue.
type scheduler interface {
	events(s *stream, from, to time.Time)
}

func newStream(devs []*device, groups []*group, win time.Duration, sched scheduler) *stream {
	s := &stream{devs: devs, groups: groups, win: win, next: simclock.Epoch, sched: sched}
	for gi, g := range groups {
		for _, c := range g.tl {
			s.ctl = append(s.ctl, ctlRef{at: c.at, g: int32(gi), flow: c.flow})
		}
	}
	slices.SortStableFunc(s.ctl, func(a, b ctlRef) int { return cmp.Compare(a.at, b.at) })
	return s
}

var errTimeline = errors.New("the generated control timeline ran out; the work needs a longer span")

func (s *stream) refill() error {
	from := s.next
	to := from.Add(s.win)
	s.next = to
	q := append(s.queue[:0], s.carry...)
	s.carry = s.carry[:0]
	end := to.UnixNano()
	for ; s.ci < len(s.ctl) && s.ctl[s.ci].at < end; s.ci++ {
		c := s.ctl[s.ci]
		g := s.groups[c.g]
		at := time.Unix(0, c.at).UTC()
		for _, d := range g.devs {
			q = append(q, frameRef{data: d.ctl[c.flow], at: at, dev: d, rec: &g.flows[c.flow].seen, flow: c.flow})
		}
	}
	if s.ci == len(s.ctl) {
		return errTimeline
	}
	s.queue = q
	s.sched.events(s, from, to)
	q = s.queue
	slices.SortStableFunc(q, func(a, b frameRef) int {
		if c := a.at.Compare(b.at); c != 0 {
			return c
		}
		return cmp.Compare(a.dev.idx, b.dev.idx)
	})
	cut := sort.Search(len(q), func(i int) bool { return !q[i].at.Before(to) })
	s.carry = append(s.carry, q[cut:]...)
	s.queue = q[:cut]
	s.pos = 0
	s.n++
	return nil
}

// take returns the next n frames; the slice is reused by the next call.
func (s *stream) take(out []frameRef, n int) ([]frameRef, error) {
	out = out[:0]
	for len(out) < n {
		if s.pos == len(s.queue) {
			if err := s.refill(); err != nil {
				return out, err
			}
			continue
		}
		out = append(out, s.queue[s.pos])
		s.pos++
	}
	return out, nil
}

// emit appends one event's frames starting at start; the first carries
// the attestation.
func (s *stream) emit(d *device, e devEvent, start time.Time, attest uint8, win int) {
	for k, data := range e.frames {
		ref := frameRef{data: data, at: start.Add(e.sh.recs[k].Time.Sub(simclock.Epoch)), dev: d, rec: &e.sh.seen[k], flow: -1, first: k == 0}
		if k == 0 {
			ref.attest, ref.win = attest, win
		}
		s.queue = append(s.queue, ref)
	}
}

// eventGap is how far apart a device's events are kept, so the gateway
// groups each one on its own.
const eventGap = events.DefaultGap + 500*time.Millisecond

// homeSched keeps every home device busy with one event after another,
// each starting 5.5–8 s after the previous one ended — a compression of
// the profiles' few events a day by three to four orders of magnitude. Half
// the events are unpredictable control events from the profile (telemetry);
// half are manual commands from the profile, of which half come with a
// phone attestation of a human tap, a quarter with none, and a quarter with
// a machine's motion. A device gets at most one command that should drop
// per 61 s, so it never collects the three drops in a minute that lock it
// out; when a draw would break that, the device sends telemetry the model
// calls non-manual instead.
type homeSched struct {
	rng        *simclock.RNG
	modelHuman [3][]bool
	nWin       int
}

func (h *homeSched) events(s *stream, from, to time.Time) {
	for _, d := range s.devs {
		for d.next.Before(to) {
			start := d.next
			e, attest, win, drop := h.pick(d)
			if t, ok := d.grp.missNear(start.Add(-eventGap), start.Add(e.sh.dur+eventGap)); ok {
				d.next = t.Add(eventGap + time.Millisecond)
				continue
			}
			if drop {
				d.lastDrop = start
			}
			if attest != attestNone {
				h.nWin++
			}
			s.emit(d, e, start, attest, win)
			d.next = start.Add(e.sh.dur + eventGap + time.Duration(h.rng.Int63n(int64(2500*time.Millisecond))))
		}
	}
}

// pick draws the device's next event and reports whether it should drop.
func (h *homeSched) pick(d *device) (e devEvent, attest uint8, win int, drop bool) {
	win = h.nWin % len(h.modelHuman[attestHuman])
	kind := h.rng.Intn(8)
	if kind < 4 {
		e = d.tele[h.rng.Intn(len(d.tele))]
	} else {
		e = d.cmd[h.rng.Intn(len(d.cmd))]
		switch kind {
		case 4, 5:
			attest = attestHuman
		case 7:
			attest = attestMachine
		}
	}
	// An attested command passes when the model judges the window human
	// and the decision comes well inside the validation's lifetime.
	vouched := attest != attestNone && h.modelHuman[attest][win] && e.sh.decideAt < core.ValidationTTL/2
	drop = e.sh.decided && e.sh.manual && !vouched
	if drop && !d.lastDrop.IsZero() && d.next.Sub(d.lastDrop) < 61*time.Second {
		for k := range d.tele {
			if t := d.tele[(k+d.idx)%len(d.tele)]; !(t.sh.decided && t.sh.manual) {
				return t, attestNone, win, false
			}
		}
	}
	return e, attest, win, drop
}

// fleetSched sends each fleet device's telemetry event — an unpredictable
// control event from its profile that its classifier calls non-manual — in
// every window from the first after bootstrap until growUntil, then in
// every every-th window (0 = never). Events that would run into a rule
// miss of the device are skipped.
type fleetSched struct {
	from, growUntil, every int
}

func (f *fleetSched) events(s *stream, from, to time.Time) {
	c := s.n
	if c < f.from || (c >= f.growUntil && f.every == 0) {
		return
	}
	for _, d := range s.devs {
		if c >= f.growUntil && (d.idx+c)%f.every != 0 {
			continue
		}
		e := d.tele[0]
		start := from.Add(d.teleOff)
		if _, ok := d.grp.missNear(start.Add(-eventGap), start.Add(e.sh.dur+eventGap)); ok {
			continue
		}
		s.emit(d, e, start, attestNone, 0)
	}
}
