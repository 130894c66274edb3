package main

import (
	"fmt"
	"math/rand"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"time"

	"fiat/internal/artifact"
	"fiat/internal/core"
	"fiat/internal/devices"
	"fiat/internal/durable"
	"fiat/internal/flows"
	"fiat/internal/keystore"
	"fiat/internal/obs"
	"fiat/internal/packet"
	"fiat/internal/sensors"
	"fiat/internal/simclock"
)

// spec is one workload: the devices it builds and the fixed amount of work
// a run does.
type spec struct {
	name        string
	why         string
	fleet       int           // fleet devices (0 = the home instead)
	batch       int           // frames per batch; every batch has this size
	batchesPerS int           // frame-phase batches per second of --seconds
	attestEvery int           // fleet: one human attestation every N batches
	teleEvery   int           // fleet: a device's telemetry cadence in windows (0 = none)
	growWindows int           // fleet: windows after bootstrap in which every device sends telemetry
	sweepEvery  int           // batches between pending-queue sweeps
	tickEvery   int           // batches between WAL sync ticks (an fsync under SyncTick)
	cycles      int           // recovery cycles after the frame phase
	cyclesPerS  int           // further recovery cycles per second of --seconds
	suffix      int           // batches before each checkpoint and in each replayed WAL suffix
	window      time.Duration // virtual time the stream schedules at once
	bootstrap   time.Duration // rule-learning window, on the virtual clock
	warm        time.Duration // untimed warm-up after the bootstrap window
	pending     time.Duration // degraded-mode hold window (0 = strict)
}

// batches is the number of batches a run of the given length steps
// through after set-up.
func (sp *spec) batches(seconds int) int {
	return sp.batchesPerS*seconds + (sp.cycles+sp.cyclesPerS*seconds)*2*sp.suffix
}

// poolSize is how many events of each class a profile's pool holds.
const poolSize = 32

// repertoireSeed draws the devices' event pools and trains their models.
const repertoireSeed = 1

// fleetCohorts is how many boot cohorts each profile's fleet devices come
// in; a cohort shares one control timeline.
const fleetCohorts = 16

// world is one fully built gateway: the durable proxy as fiat-proxy builds
// it, the devices and their frames, the paired phone, and the oracle.
type world struct {
	sp        *spec
	dir       string
	clock     *benchClock
	devs      []*device
	groups    []*group
	domains   map[netip.Addr]string
	byIP      map[netip.Addr]*device
	resolve   func(netip.Addr) string
	validator *sensors.Validator
	models    map[*devices.Profile]*core.MLClassifier // per model-classified profile
	clfs      map[*devices.Profile]core.EventClassifier
	proxyKS   *keystore.Store
	phone     *core.ClientApp
	// The phone's sensor windows by attestation kind, their features, and
	// the humanness model's verdict on each, taken once before any traffic:
	// the pipeline must reproduce that verdict for every attestation.
	windows    [3][]sensors.Window
	feats      [3][][]float64
	modelHuman [3][]bool
	labelDiff  int // windows whose model verdict differs from their label
	// Pool events that reach a decision, and those whose classifier
	// verdict differs from their ground-truth label.
	poolDecided, poolConfused int
	kind                      runKind
	eng                       engine      // the durable manager, or the bare proxy in the arms world
	replica                   *bareEngine // the pair world's replica proxy
	cfg                       durable.Config
	mgr                       *durable.Manager // nil in the arms world
	store                     *artifact.Store
	src                       *stream
	or                        *oracle
	batchNo                   int
	nAttest                   int
	setupErrs                 int64
	setupOps                  int64

	refs []frameRef
	pkts []*packet.Packet
	ins  []core.PacketIn
	ms   [2]runtime.MemStats

	// Recovery bookkeeping: the digest of the live decisions since the last
	// checkpoint, and of the decisions WAL replay regenerated.
	suffixDigest digest
	replayDigest digest
	replayOps    int
	buildEnd     time.Time
	buildNs      int64
	replayFirst  time.Time
	replayLast   time.Time

	m  *measure
	tr *trace // nil in untraced runs
}

// runKind selects what a world measures.
type runKind int

const (
	// untraced times only the end-to-end calls.
	untraced runKind = iota
	// spans also times each layer's calls, and nothing else.
	spans
	// pair feeds every operation both to the durable manager and to a
	// replica core.Proxy built the same way, timing both engine calls in
	// alternating order, so the durable layer's own cost is the difference
	// of two calls made under the same conditions.
	pair
	// arms drives a bare core.Proxy and runs the isolated arms (rule match,
	// features and inference, validator, attestation decode), the
	// allocation samples and the WAL byte count, kept away from the timed
	// spans.
	arms
)

// bare reports whether the world drives a bare proxy instead of the
// durable manager.
func (k runKind) bare() bool { return k == arms }

// engine is the part of the gateway a step drives: durable.Manager, or a
// bare proxy.
type engine interface {
	ProcessBatch(batch []core.PacketIn) ([]core.Decision, error)
	HandleAttestationVerdict(payload []byte) (bool, error)
	SweepPending() error
	Tick() error
	Proxy() *core.Proxy
}

// bareEngine adapts a core.Proxy to engine.
type bareEngine struct {
	p   *core.Proxy
	out []core.Decision
}

func (e *bareEngine) ProcessBatch(batch []core.PacketIn) ([]core.Decision, error) {
	e.out = e.p.ProcessBatchInto(batch, e.out)
	return e.out, nil
}

func (e *bareEngine) HandleAttestationVerdict(payload []byte) (bool, error) {
	return e.p.HandleAttestation(payload)
}

func (e *bareEngine) SweepPending() error { e.p.SweepPending(); return nil }
func (e *bareEngine) Tick() error         { return nil }
func (e *bareEngine) Proxy() *core.Proxy  { return e.p }

// measure collects one phase's end-to-end observations.
type measure struct {
	frames     int64
	batchNs    []float64
	attestNs   []float64
	busyNs     int64     // time inside the gateway's live calls, checkpoints and restarts excluded
	stepNs     []float64 // per batch, its busy time including the attestations and housekeeping around it
	ckptMs     []float64
	restartMs  []float64
	snapBytes  []float64
	attempted  int64
	wrong      int64
	heapPeak   uint64 // the largest live heap read
	heapSample []metrics.Sample
	modes      []uint8 // traced-run untraced phase: per batch, GC / rotation flags
	rotations  int     // with modes: WAL segments the phase's appends opened
	gcSample   []metrics.Sample

	// Heap allocations while stepping (frames, attestations, housekeeping),
	// those of the phone's attestation encoding among them, and those of
	// the checkpoints and restarts.
	stepMallocs, phoneMallocs, phoneBytes, stepBytes, recoveryMallocs uint64
}

const (
	modeGC       uint8 = 1
	modeRotation uint8 = 2
)

func newMeasure(tagModes bool, batches int) *measure {
	m := &measure{
		heapSample: []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}},
		batchNs:    make([]float64, 0, batches),
		stepNs:     make([]float64, 0, batches),
	}
	if tagModes {
		m.gcSample = []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
		m.modes = make([]uint8, 0, batches)
	}
	return m
}

// sampleHeap reads the heap right after a forced collection — the live
// heap — and keeps the largest reading. The peak between collections
// depends on when the collector runs, which moves with the host's load.
func (m *measure) sampleHeap() {
	metrics.Read(m.heapSample)
	if v := m.heapSample[0].Value.Uint64(); v > m.heapPeak {
		m.heapPeak = v
	}
}

func (m *measure) gcCount() uint64 {
	metrics.Read(m.gcSample)
	return m.gcSample[0].Value.Uint64()
}

// check counts one checked operation, and a failure when ok is false.
func (m *measure) check(ok bool) {
	m.attempted++
	if !ok {
		m.wrong++
	}
}

// setup builds a world from the seed and drives it through the bootstrap
// window and warm-up on the virtual clock. Everything it does is
// deterministic work: training, traffic generation, fleet build, learning.
func setup(sp *spec, seed int64, seconds int, stateRoot string, kind runKind) (*world, error) {
	w := &world{sp: sp, kind: kind, clock: newBenchClock(), byIP: map[netip.Addr]*device{}, domains: map[netip.Addr]string{}}
	w.resolve = func(a netip.Addr) string { return w.domains[a] }
	rng := rand.New(rand.NewSource(seed))
	gen := simclock.NewRNG(seed)

	// Pairing: proxy and phone derive the same key from one pairing code.
	code := make([]byte, 32)
	rng.Read(code)
	key, err := keystore.DerivePairingKey(code)
	if err != nil {
		return nil, err
	}
	var phoneKS *keystore.Store
	for _, ks := range []**keystore.Store{&w.proxyKS, &phoneKS} {
		if *ks, err = keystore.New(rand.New(rand.NewSource(rng.Int63()))); err != nil {
			return nil, err
		}
		if err := (*ks).ImportKey(keystore.PairingAlias, key); err != nil {
			return nil, err
		}
	}
	if w.validator, _, err = sensors.DefaultValidator(1); err != nil {
		return nil, fmt.Errorf("train validator: %w", err)
	}
	w.windows[attestHuman], w.windows[attestMachine] = windowPool(seed, 32)
	for _, kind := range []uint8{attestHuman, attestMachine} {
		for _, win := range w.windows[kind] {
			f := sensors.Features(win)
			h := w.validator.Validate(f)
			w.feats[kind] = append(w.feats[kind], f)
			w.modelHuman[kind] = append(w.modelHuman[kind], h)
			if h != (kind == attestHuman) {
				w.labelDiff++
			}
		}
	}
	if err := w.buildTraffic(gen, seconds); err != nil {
		return nil, err
	}
	w.phone = core.NewClientApp(w.clock, phoneKS)
	for _, d := range w.devs {
		w.phone.BindApp(d.app, d.name)
	}
	oclfs := map[*devices.Profile]core.EventClassifier{}
	for p, c := range w.clfs {
		oclfs[p] = c
		if m := w.models[p]; m != nil {
			oclfs[p] = m.CompiledEventClassifier()
		}
	}

	if kind.bare() {
		p, err := w.newProxy(w.clock, nil)
		if err != nil {
			return nil, err
		}
		w.eng = &bareEngine{p: p}
	} else {
		w.dir, err = os.MkdirTemp(stateRoot, "state-*")
		if err != nil {
			return nil, err
		}
		w.cfg = durable.Config{Dir: w.dir, Sync: durable.SyncTick, OnReplay: w.onReplay}
		if w.mgr, err = durable.Open(w.cfg, w.clock, w.build); err != nil {
			return nil, fmt.Errorf("open state: %w", err)
		}
		w.eng = w.mgr
	}
	if kind == pair {
		p, err := w.newProxy(w.clock, artifact.NewStore())
		if err != nil {
			return nil, err
		}
		w.replica = &bareEngine{p: p}
	}
	w.pkts = make([]*packet.Packet, sp.batch)
	w.ins = make([]core.PacketIn, sp.batch)
	w.or = newOracle(simclock.Epoch, sp.bootstrap, sp.pending, w.devs, oclfs)
	if kind != untraced {
		w.tr = newTrace()
	}

	// Bootstrap learning and warm-up (freeze, compile, lazy artifacts),
	// checked by the oracle but not timed.
	w.m = newMeasure(false, 0)
	end := simclock.Epoch.Add(sp.bootstrap + sp.warm)
	for !w.now().After(end) {
		if err := w.step(); err != nil {
			return nil, err
		}
	}
	w.setupErrs, w.setupOps = w.m.wrong, w.m.attempted
	return w, nil
}

// buildTraffic builds the devices, their classifiers, and the stream: the
// testbed profiles' event classifiers trained on profile traffic, the
// event pools, the control timelines (long enough for the run's work), and
// every frame. Records the gateway would read back differently from how
// they were generated fail the set-up.
func (w *world) buildTraffic(gen *simclock.RNG, seconds int) error {
	sp := w.sp
	profiles := devices.StandardTestbed()
	w.models = map[*devices.Profile]*core.MLClassifier{}
	w.clfs = map[*devices.Profile]core.EventClassifier{}
	var tele, cmd = map[*devices.Profile][]*evShape{}, map[*devices.Profile][]*evShape{}
	// The device models' event repertoire and trained classifiers are the
	// same for every seed, as shipped firmware and models are; the seed
	// draws the control timelines, the event schedule and the attestations.
	// A seed-drawn repertoire of a few dozen events per device moved the
	// share of decided events, and with it the audit log, by ±8% between
	// seeds.
	fixed := simclock.NewRNG(repertoireSeed)
	var err error
	for _, p := range profiles {
		w.clfs[p] = core.RuleClassifier{NotificationSize: p.NotificationSize}
		if !p.SimpleRule {
			m, err := core.TrainMLClassifier(trainingEvents(p, fixed.Fork("train/"+p.Name)), nil)
			if err != nil {
				return fmt.Errorf("train %s classifier: %w", p.Name, err)
			}
			w.models[p], w.clfs[p] = m, m
		}
		if tele[p], err = eventPool(p, fixed.Fork("tele/"+p.Name), false, poolSize); err != nil {
			return err
		}
		if sp.fleet == 0 {
			if cmd[p], err = eventPool(p, fixed.Fork("cmd/"+p.Name), true, poolSize); err != nil {
				return err
			}
		}
	}

	// Devices and their boot groups.
	var sched scheduler
	if sp.fleet > 0 {
		// The fleet has the testbed's mix of models, by Table 1 quantities.
		var slots []*devices.Profile
		for _, p := range profiles {
			for q := 0; q < p.Quantity; q++ {
				slots = append(slots, p)
			}
		}
		groupOf := map[[2]int]*group{}
		for i := 0; i < sp.fleet; i++ {
			si := i % len(slots)
			p, c := slots[si], i/len(slots)%fleetCohorts
			pi := slices.Index(profiles, p)
			g := groupOf[[2]int{pi, c}]
			if g == nil {
				g = &group{prof: stableFlows(p)}
				groupOf[[2]int{pi, c}] = g
				w.groups = append(w.groups, g)
			}
			d := newDevice(i, p, g)
			d.teleOff = time.Duration(i%64) * (12 * time.Second / 64)
			w.devs = append(w.devs, d)
		}
		from := int(sp.bootstrap/sp.window) + 1
		sched = &fleetSched{from: from, growUntil: from + sp.growWindows, every: sp.teleEvery}
	} else {
		for i, p := range profiles {
			g := &group{prof: stableFlows(p)}
			w.groups = append(w.groups, g)
			d := newDevice(i, p, g)
			d.next = simclock.Epoch.Add(sp.bootstrap + sp.window + time.Duration(i)*time.Second)
			w.devs = append(w.devs, d)
		}
		sched = &homeSched{rng: gen.Fork("schedule"), modelHuman: w.modelHuman}
	}

	// Control timelines long enough for the run's fixed work.
	span := sp.bootstrap + sp.warm + 2*sp.window + time.Duration(float64(time.Second)*w.spanSeconds(tele, cmd, seconds))
	for gi, g := range w.groups {
		if err := g.buildTimeline(gen.Fork(fmt.Sprintf("control/%d", gi)), span, sp.bootstrap); err != nil {
			return err
		}
	}

	// Resolution: every domain the traffic uses, and a check that no two
	// share an address.
	register := func(r flows.Record) error {
		if old, ok := w.domains[r.RemoteIP]; ok && old != r.RemoteDomain {
			return fmt.Errorf("domains %s and %s share %s", old, r.RemoteDomain, r.RemoteIP)
		}
		w.domains[r.RemoteIP] = r.RemoteDomain
		return nil
	}
	var shapes []*evShape
	for _, p := range profiles {
		shapes = append(append(shapes, tele[p]...), cmd[p]...)
	}
	for _, sh := range shapes {
		for _, r := range sh.recs {
			if err := register(r); err != nil {
				return err
			}
		}
	}
	for _, g := range w.groups {
		for _, f := range g.flows {
			if err := register(f.rec); err != nil {
				return err
			}
		}
	}
	// What the gateway reads back from each frame.
	probe := deviceIP(0)
	for _, g := range w.groups {
		for i := range g.flows {
			if g.flows[i].seen, err = seenView(g.flows[i].rec, probe, w.resolve); err != nil {
				return err
			}
		}
	}
	for _, p := range profiles {
		for _, sh := range append(append([]*evShape(nil), tele[p]...), cmd[p]...) {
			for _, r := range sh.recs {
				v, err := seenView(r, probe, w.resolve)
				if err != nil {
					return err
				}
				sh.seen = append(sh.seen, v)
			}
			sh.classify(w.clfs[p], graceN(p))
			if sh.decided {
				w.poolDecided++
				if sh.manual != sh.label {
					w.poolConfused++
				}
			}
		}
	}

	// Frames.
	for _, d := range w.devs {
		w.byIP[d.ip] = d
		d.render()
		if sp.fleet > 0 {
			var calm []*evShape
			for _, sh := range tele[d.prof] {
				if !(sh.decided && sh.manual) {
					calm = append(calm, sh)
				}
			}
			if len(calm) == 0 {
				return fmt.Errorf("%s: no telemetry event its classifier calls non-manual", d.prof.Name)
			}
			d.tele = []devEvent{d.event(calm[d.idx/len(profiles)%len(calm)])}
			continue
		}
		for _, sh := range tele[d.prof] {
			d.tele = append(d.tele, d.event(sh))
		}
		for _, sh := range cmd[d.prof] {
			d.cmd = append(d.cmd, d.event(sh))
		}
	}
	w.src = newStream(w.devs, w.groups, sp.window, sched)
	return nil
}

// spanSeconds estimates, with room to spare, the virtual seconds the run's
// batches after set-up cover: frames over the devices' frame rate.
func (w *world) spanSeconds(tele, cmd map[*devices.Profile][]*evShape, seconds int) float64 {
	var rate float64 // frames per virtual second
	for _, g := range w.groups {
		for _, cf := range g.prof.Control {
			rate += float64(len(g.devs)) / cf.Period.Seconds()
		}
	}
	if w.sp.fleet == 0 {
		// Each home device sends one event after another; half of them
		// telemetry, half commands.
		mean := func(shs []*evShape) (frames, secs float64) {
			for _, sh := range shs {
				frames += float64(len(sh.recs))
				secs += (sh.dur + eventGap + 1250*time.Millisecond).Seconds()
			}
			return frames / float64(len(shs)), secs / float64(len(shs))
		}
		for _, d := range w.devs {
			tf, ts := mean(tele[d.prof])
			cf, cs := mean(cmd[d.prof])
			rate += (tf + cf) / (ts + cs)
		}
	}
	return 1.5 * float64(w.sp.batches(seconds)*w.sp.batch) / rate
}

func (w *world) now() time.Time { return time.Unix(0, w.clock.virt.Load()).UTC() }

// newProxy performs the complete proxy construction, as cmd/fiat-proxy's
// buildProxy does: default engine knobs, a zero-copy artifact store, and an
// obs registry. Each device wears its profile's classifier: the size rule
// for the simple devices, the profile's trained model otherwise.
func (w *world) newProxy(c simclock.Clock, store *artifact.Store) (*core.Proxy, error) {
	p := core.NewProxy(c, w.proxyKS, w.validator, core.Config{
		Bootstrap:     w.sp.bootstrap,
		Artifacts:     store,
		PendingWindow: w.sp.pending,
		Obs:           obs.NewRegistry(),
	})
	for _, d := range w.devs {
		if err := p.AddDevice(core.DeviceConfig{Name: d.name, Classifier: w.clfs[d.prof], GraceN: d.graceN}); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// build is the durable.BuildProxy: it is timed so a restart can be split
// into build, restore, and replay.
func (w *world) build(c simclock.Clock) (*core.Proxy, error) {
	start := time.Now()
	w.store = artifact.NewStore()
	p, err := w.newProxy(c, w.store)
	w.buildEnd = time.Now()
	w.buildNs = w.buildEnd.Sub(start).Nanoseconds()
	return p, err
}

func (w *world) onReplay(op *durable.Op, ds []core.Decision) {
	if w.replayOps == 0 {
		w.replayFirst = time.Now()
	}
	w.replayLast = time.Now()
	w.replayOps++
	for _, d := range ds {
		w.replayDigest.decision(d)
	}
}

// steps runs n steps and counts the heap allocations they make.
func (w *world) steps(n int) error {
	runtime.ReadMemStats(&w.ms[0])
	m0, b0 := w.ms[0].Mallocs, w.ms[0].TotalAlloc
	for i := 0; i < n; i++ {
		if err := w.step(); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&w.ms[0])
	w.m.stepMallocs += w.ms[0].Mallocs - m0
	w.m.stepBytes += w.ms[0].TotalAlloc - b0
	return nil
}

// step runs one batch: the attestations due before it, the batch itself,
// and housekeeping on its fixed cadence.
func (w *world) step() error {
	sp := w.sp
	busy0 := w.m.busyNs
	var err error
	if w.refs, err = w.src.take(w.refs, sp.batch); err != nil {
		return err
	}
	for i := range w.refs {
		if f := &w.refs[i]; f.first && f.attest != attestNone {
			// The phone attests as the event starts.
			w.clock.set(f.at)
			if err := w.attest(f.dev, f.attest, f.win); err != nil {
				return err
			}
		}
	}
	if sp.attestEvery > 0 && w.batchNo%sp.attestEvery == 0 {
		w.nAttest++
		d := w.devs[w.nAttest%len(w.devs)]
		if err := w.attest(d, attestHuman, w.nAttest%len(w.windows[attestHuman])); err != nil {
			return err
		}
	}
	now := w.refs[len(w.refs)-1].at
	w.clock.set(now)
	if err := w.decide(now); err != nil {
		return err
	}
	w.batchNo++
	if w.batchNo%sp.sweepEvery == 0 {
		if err := w.sweep(); err != nil {
			return err
		}
	}
	if w.batchNo%sp.tickEvery == 0 {
		if err := w.tick(); err != nil {
			return err
		}
	}
	w.m.stepNs = append(w.m.stepNs, float64(w.m.busyNs-busy0))
	if w.tr != nil {
		w.tr.endStep()
	}
	return nil
}

// decide drives one batch of raw frames through the gateway: decode,
// device and domain resolution, then the engine (in production, the
// durable manager: WAL append, then the proxy). Only these calls are
// timed.
func (w *world) decide(now time.Time) error {
	n := len(w.refs)
	m, tr := w.m, w.tr
	var gc0 uint64
	if m.modes != nil {
		gc0 = m.gcCount()
	}
	// The arms world samples allocations on every 16th batch: decode's
	// and the bare engine's.
	sample := w.kind == arms && w.batchNo%16 == 0
	var ms0 uint64
	if sample {
		ms0 = tr.mallocs()
	}
	t0 := time.Now()
	for i := range w.refs {
		f := &w.refs[i]
		w.pkts[i] = packet.Decode(f.data, packet.CaptureInfo{Timestamp: f.at, Length: len(f.data), CaptureLength: len(f.data)})
	}
	var t1, t2 time.Time
	if tr != nil {
		t1 = time.Now()
		if sample {
			tr.decodeAllocs += tr.mallocs() - ms0
			tr.allocFrames += int64(n)
		}
		t2 = time.Now()
	}
	for i, p := range w.pkts[:n] {
		ip := p.IPv4()
		if ip == nil {
			return fmt.Errorf("frame %d: no IPv4 layer", i)
		}
		d := w.byIP[ip.SrcIP]
		if d == nil {
			if d = w.byIP[ip.DstIP]; d == nil {
				return fmt.Errorf("frame %d: no protected device", i)
			}
		}
		rec, ok := devices.RecordFromFrame(p, d.ip, w.resolve)
		if !ok {
			return fmt.Errorf("frame %d: not a flow of %s", i, d.name)
		}
		w.ins[i] = core.PacketIn{Device: d.name, Rec: rec}
	}
	var t3 time.Time
	if tr != nil {
		if sample {
			ms0 = tr.mallocs()
		}
		t3 = time.Now()
	}
	// The pair world alternates which engine goes first.
	if w.replica != nil && w.batchNo%2 == 1 {
		if err := w.replicaBatch(); err != nil {
			return err
		}
		t3 = time.Now()
	}
	ds, err := w.eng.ProcessBatch(w.ins[:n])
	t4 := time.Now()
	if err != nil {
		return err
	}
	if w.replica != nil && w.batchNo%2 == 0 {
		if err := w.replicaBatch(); err != nil {
			return err
		}
	}
	if sample {
		tr.coreAllocs += tr.mallocs() - ms0
	}
	el := t4.Sub(t0).Nanoseconds()
	m.batchNs = append(m.batchNs, float64(el))
	m.busyNs += el
	m.frames += int64(n)
	if m.modes != nil {
		var mode uint8
		if m.gcCount() != gc0 {
			mode |= modeGC
		}
		if w.rotatedAt(w.mgr.LastSeq()) {
			mode |= modeRotation
			m.rotations++
		}
		m.modes = append(m.modes, mode)
	}
	if tr != nil {
		tr.batch(w, t0, t1, t2, t3, t4)
	}
	if w.replica != nil {
		m.check(slices.Equal(w.replica.out, ds))
	}
	for i := range w.refs {
		f := &w.refs[i]
		exp := w.or.frame(f, now)
		if w.kind == arms && w.or.classified != nil {
			tr.modelArm(w, w.or.classified, exp.Reason != core.ReasonNonManual)
		}
		w.or.digest.decision(ds[i])
		w.suffixDigest.decision(ds[i])
		m.check(ds[i] == exp)
		if ds[i] != exp && m.wrong <= 5 {
			fmt.Fprintf(os.Stderr, "wrong verdict: %s at %s: got %s/%s, want %s/%s\n",
				f.dev.name, f.at.Format(time.RFC3339Nano), ds[i].Verdict, ds[i].Reason, exp.Verdict, exp.Reason)
		}
	}
	return nil
}

// replicaBatch feeds the batch to the pair world's replica proxy and times
// it.
func (w *world) replicaBatch() error {
	t0 := time.Now()
	_, err := w.replica.ProcessBatch(w.ins[:len(w.refs)])
	w.tr.cur.core += time.Since(t0).Nanoseconds()
	return err
}

// rotatedAt reports whether the WAL opened a new segment for op seq.
func (w *world) rotatedAt(seq uint64) bool {
	_, err := os.Stat(filepath.Join(w.dir, fmt.Sprintf("wal-%016x.seg", seq)))
	return err == nil
}

// attest has the paired phone attest an interaction with device d — its
// k-th human tap or machine motion window — and feeds the payload to the
// durable manager. Only the manager call is timed. The phone's own
// allocations (feature extraction, encoding, MAC) are counted apart, so
// that they can be taken out of the gateway's.
func (w *world) attest(d *device, kind uint8, k int) error {
	feat := w.feats[kind][k]
	runtime.ReadMemStats(&w.ms[0])
	payload, err := w.phone.Attest(d.app, w.windows[kind][k])
	runtime.ReadMemStats(&w.ms[1])
	w.m.phoneMallocs += w.ms[1].Mallocs - w.ms[0].Mallocs
	w.m.phoneBytes += w.ms[1].TotalAlloc - w.ms[0].TotalAlloc
	if err != nil {
		return err
	}
	t0 := time.Now()
	got, err := w.eng.HandleAttestationVerdict(payload)
	el := time.Since(t0).Nanoseconds()
	if err != nil {
		return fmt.Errorf("attestation: %w", err)
	}
	w.m.attestNs = append(w.m.attestNs, float64(el))
	w.m.busyNs += el
	if w.m.modes != nil && w.rotatedAt(w.mgr.LastSeq()) {
		w.m.rotations++
	}
	if w.tr != nil {
		w.tr.attest(w, payload, feat, got, el)
	}
	if w.replica != nil {
		rgot, err := w.replica.HandleAttestationVerdict(payload)
		w.m.check(err == nil && rgot == got)
	}
	exp := w.or.attest(d, w.modelHuman[kind][k], w.now())
	w.or.digest.attest(got)
	w.m.check(got == exp)
	if got != exp {
		fmt.Fprintf(os.Stderr, "wrong attestation verdict for %s: got human=%v\n", d.name, got)
	}
	return nil
}

// sweep settles the pending queue, on its fixed cadence.
func (w *world) sweep() error {
	t0 := time.Now()
	if err := w.eng.SweepPending(); err != nil {
		return err
	}
	el := time.Since(t0).Nanoseconds()
	w.m.busyNs += el
	if w.replica != nil {
		w.replica.SweepPending()
	}
	w.or.sweep(w.now())
	if w.tr != nil {
		w.tr.sweep(w, el)
	}
	got, want := w.eng.Proxy().PendingDepth(), len(w.or.held)
	w.m.check(got == want)
	if got != want {
		fmt.Fprintf(os.Stderr, "pending queue holds %d decisions, want %d\n", got, want)
	}
	return nil
}

// tick is the WAL sync tick, on its fixed cadence.
func (w *world) tick() error {
	t0 := time.Now()
	if err := w.eng.Tick(); err != nil {
		return err
	}
	el := time.Since(t0).Nanoseconds()
	w.m.busyNs += el
	if w.tr != nil {
		w.tr.cur.house += el
	}
	return nil
}

// recoveryCycle runs one checkpoint-and-crash cycle: a WAL suffix of
// batches, a checkpoint, a fixed suffix after it, a pulled plug, and a
// reopen that restores the snapshot and replays that suffix. The replayed
// decisions must equal the live ones.
func (w *world) recoveryCycle() error {
	if err := w.steps(w.sp.suffix); err != nil {
		return err
	}
	if w.kind.bare() {
		// Checkpoints and restarts change no decision (the replay check
		// proves it), so a bare proxy runs the same operations without
		// them, with the same collections.
		runtime.GC()
		if err := w.sweep(); err != nil {
			return err
		}
		if err := w.steps(w.sp.suffix); err != nil {
			return err
		}
		runtime.GC()
		return nil
	}
	if w.tr != nil {
		w.tr.encodeArm(w)
	}
	runtime.GC()
	w.m.sampleHeap()
	runtime.ReadMemStats(&w.ms[0])
	ckMallocs := w.ms[0].Mallocs
	t0 := time.Now()
	if err := w.mgr.Checkpoint(); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	ck := time.Since(t0)
	runtime.ReadMemStats(&w.ms[0])
	w.m.recoveryMallocs += w.ms[0].Mallocs - ckMallocs
	w.m.ckptMs = append(w.m.ckptMs, float64(ck.Nanoseconds())/1e6)
	st, err := os.Stat(filepath.Join(w.dir, fmt.Sprintf("snap-%016x.snap", w.mgr.SnapshotSeq())))
	if err != nil {
		return err
	}
	w.m.snapBytes = append(w.m.snapBytes, float64(st.Size()))
	if w.tr != nil {
		w.tr.checkpointed(ck)
	}

	// The suffix opens with a sweep, a cheap op, so the first replay
	// callback marks the end of the snapshot restore.
	if err := w.sweep(); err != nil {
		return err
	}
	w.suffixDigest = newDigest()
	if err := w.steps(w.sp.suffix); err != nil {
		return err
	}
	// Pull the plug and drop the dead process's state before reopening.
	w.mgr.Abort()
	w.mgr.Proxy().Close()
	w.mgr, w.eng = nil, nil
	w.replayDigest, w.replayOps = newDigest(), 0
	runtime.GC()
	runtime.ReadMemStats(&w.ms[0])
	rsMallocs := w.ms[0].Mallocs
	t0 = time.Now()
	mgr, err := durable.Open(w.cfg, w.clock, w.build)
	rs := time.Since(t0)
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	runtime.ReadMemStats(&w.ms[0])
	w.m.recoveryMallocs += w.ms[0].Mallocs - rsMallocs
	w.mgr, w.eng = mgr, mgr
	w.m.restartMs = append(w.m.restartMs, float64(rs.Nanoseconds())/1e6)
	w.m.check(w.replayDigest == w.suffixDigest && w.replayOps > 0)
	if w.replayDigest != w.suffixDigest || w.replayOps == 0 {
		fmt.Fprintf(os.Stderr, "replay of %d ops regenerated different decisions\n", w.replayOps)
	}
	if w.tr != nil {
		w.tr.restarted(w)
	}
	return nil
}

// close pulls the plug; the state directory stays until the run ends.
func (w *world) close() {
	if w.mgr != nil {
		w.mgr.Abort()
	}
	if w.eng != nil {
		w.eng.Proxy().Close()
	}
	if w.replica != nil {
		w.replica.p.Close()
	}
}

// windowPool draws the phone's sensor windows: clean human taps and a
// machine's motion (no gentle touches, no bumps), so the humanness model's
// verdict is the ground truth.
func windowPool(seed int64, n int) (human, machine []sensors.Window) {
	gen := sensors.NewGenerator(simclock.NewRNG(seed))
	gen.GentleTouchProb, gen.BumpProb = 0, 0
	for i := 0; i < n; i++ {
		human = append(human, gen.Human())
		machine = append(machine, gen.NonHuman())
	}
	return human, machine
}
