package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"csds/internal/workload"
)

// workloadDef is one named workload: what is built, how it is loaded.
type workloadDef struct {
	name string
	why  string
	spec string // composite spec, untraced
	size int    // prefill and sizing hint; the key space is twice this
	mix  string // internal/workload mix spec
	net  bool   // served over loopback (else called in-process)
	// depth is the number of requests a network client pipelines per
	// flush (1: one request per round trip).
	depth   int
	workers int // closed-loop connections or goroutines
}

var workloads = []*workloadDef{
	{
		name: "net-point",
		why:  "one memcache request per round trip against csdsd's default structure: wire, syscalls and session dominate",
		spec: "sharded(32,hashtable/lazy)", size: 65536, mix: "ycsb-b",
		net: true, depth: 1, workers: 2,
	},
	{
		name: "net-pipeline",
		why:  "32 pipelined requests per flush: get runs merge into one MultiGet, so burst merge, shard grouping and reply formatting carry the load",
		spec: "sharded(32,hashtable/lazy)", size: 65536, mix: "ycsb-b",
		net: true, depth: 32, workers: 2,
	},
	{
		name: "lib-mixed",
		why:  "no wire: list traversal, scan guard, streaming page merge, batches, EBR and the flat combiner carry the load",
		spec: "sharded(8,list/lazy)", size: 4096, mix: "paper:scan-frac=0.02:cursor-frac=0.02:batch-frac=0.05",
		workers: 2,
	},
}

func lookupWorkload(name string) (*workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// rig is a booted structure (and, over the network, its server and
// connections), ready to be driven.
type rig interface {
	drive(p plan, in *inputs, recs []*recorder) error
	// reclaimStats reads the reclamation domain's totals; safe while the
	// rig is being driven.
	reclaimStats() (retired, reclaimed uint64)
	// teardown stops the rig and checks its final state against the
	// ledger of acknowledged inserts and removes.
	teardown(inserted, removed uint64) (violations []string, err error)
}

// inputs are a run's pre-generated op streams, one per worker.
type inputs struct {
	seed    uint64
	streams []*stream
	wires   [][]byte  // network: each stream's encoded requests
	ats     [][]int32 // network: request offsets into wires
}

// runOut is everything one measured run produced.
type runOut struct {
	w       *workloadDef
	spec    string
	setupS  []float64
	recs    []*recorder
	plan    plan
	heapMB  float64
	gcs     uint32
	pauseNs uint64
	mallocs uint64
	// Traced runs only: reclamation over the window and the peak backlog.
	retiredInWin, lagMax uint64
	parseNs              float64 // network, traced: parser time per request
	shed                 uint64  // network: requests the server shed
	tr                   *tracer
	violations           []string
	// Summaries of the recorders' per-sub-window histograms, which are
	// dropped before the live heap is read.
	opsPerSec float64
	fams      [numFam]famStats
}

const (
	clientSpanCap = 2048    // client requests per worker kept for the span dump
	slotSpanCap   = 1 << 16 // structure spans per worker context kept for the dump
)

// measure makes one run: draw the inputs, set up setups times (the last
// set-up is the one measured), warm up, measure the window, check.
func measure(w *workloadDef, seed uint64, window time.Duration, traced bool, setups int) (*runOut, error) {
	out := &runOut{w: w, spec: w.spec}
	keep := 0
	if traced {
		spec, err := traceSpec(w.spec)
		if err != nil {
			return nil, err
		}
		out.spec, out.tr, keep = spec, newTracer(slotSpanCap), clientSpanCap
	}
	cfg, err := workload.ParseMix(w.mix)
	if err != nil {
		return nil, err
	}
	cfg.Size, cfg.KeySpace = w.size, int64(2*w.size)
	gen := workload.NewGenerator(cfg)
	in := &inputs{seed: seed}
	for i := 0; i < w.workers; i++ {
		s := genStream(gen, workerRng(seed, i), ringLen)
		in.streams = append(in.streams, s)
		if w.net {
			wire, at := encodeWire(s.ops)
			in.wires, in.ats = append(in.wires, wire), append(in.ats, at)
		}
	}

	var r rig
	for i := 0; i < setups; i++ {
		if r != nil {
			if _, err := r.teardown(0, 0); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		t0 := time.Now()
		if w.net {
			r, err = bootNet(w, out.spec, gen, out.tr)
		} else {
			r, err = bootLib(w, out.spec, gen, out.tr)
		}
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		out.setupS = append(out.setupS, time.Since(t0).Seconds())
	}

	runtime.GC()
	out.plan = newPlan(warmup(window), window)
	for i := 0; i < w.workers; i++ {
		out.recs = append(out.recs, newRecorder(out.plan.n, keep))
	}
	if out.tr != nil {
		out.tr.window(out.plan.winStart, out.plan.end)
	}
	var lag chan [2]uint64
	if traced {
		lag = make(chan [2]uint64, 1)
		go func() { lag <- sampleReclaim(out.plan, r.reclaimStats) }()
	}
	var m0, m1 runtime.MemStats
	driven := make(chan error, 1)
	go func() { driven <- r.drive(out.plan, in, out.recs) }()
	sleepUntil(out.plan.winStart)
	runtime.ReadMemStats(&m0)
	driveErr := <-driven
	runtime.ReadMemStats(&m1)
	out.gcs = m1.NumGC - m0.NumGC
	out.pauseNs = m1.PauseTotalNs - m0.PauseTotalNs
	out.mallocs = m1.Mallocs - m0.Mallocs
	if lag != nil {
		v := <-lag
		out.retiredInWin, out.lagMax = v[0], v[1]
	}
	var parseErr error
	if traced && w.net {
		if out.parseNs, parseErr = parseNsPerRequest(in.wires[0], len(in.streams[0].ops)); parseErr != nil {
			parseErr = fmt.Errorf("parser replay: %w", parseErr)
		}
	}

	// The live heap is read with the structure (and server) still up but
	// the benchmark's own inputs and histograms released.
	out.opsPerSec = opsPerSec(out.recs, out.plan.winLen)
	for f := range out.fams {
		out.fams[f] = summarizeFamily(out.recs, family(f))
	}
	for _, rec := range out.recs {
		rec.hists = nil
	}
	in = nil
	runtime.GC()
	runtime.GC()
	var mh runtime.MemStats
	runtime.ReadMemStats(&mh)
	out.heapMB = float64(mh.HeapAlloc) / (1 << 20)

	var ins, rem uint64
	for _, rec := range out.recs {
		ins += rec.inserted
		rem += rec.removed
		if rec.bad > 0 {
			out.violations = append(out.violations, fmt.Sprintf("%d wrong outputs, first: %s", rec.bad, rec.firstBad))
		}
	}
	bad, err := r.teardown(ins, rem)
	out.violations = append(out.violations, bad...)
	if nr, ok := r.(*netRig); ok {
		out.shed = nr.shed
	}
	return out, errors.Join(driveErr, parseErr, err)
}

// warmup is the untimed lead-in before the window: pools, caches and the
// scheduler settle.
func warmup(window time.Duration) time.Duration {
	return min(time.Second, window/5)
}

func sleepUntil(t int64) {
	if d := t - nanotime(); d > 0 {
		time.Sleep(time.Duration(d))
	}
}

// sampleReclaim samples the reclamation domain through the window: it
// returns the nodes retired inside the window and the peak backlog
// (retired but not yet reclaimed).
func sampleReclaim(p plan, stats func() (uint64, uint64)) [2]uint64 {
	sleepUntil(p.winStart)
	ret0, _ := stats()
	var lag uint64
	for {
		ret, rec := stats()
		lag = max(lag, ret-rec)
		if nanotime() >= p.end {
			return [2]uint64{ret - ret0, lag}
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// --- network rig ----------------------------------------------------------

func (r *netRig) drive(p plan, in *inputs, recs []*recorder) error {
	errs := make([]error, len(r.conns))
	var wg sync.WaitGroup
	for i := range r.conns {
		c := &netClient{nc: r.conns[i], br: r.readers[i], s: in.streams[i],
			wire: in.wires[i], at: in.ats[i], depth: r.depth, rec: recs[i]}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if errs[i] = c.run(p); errs[i] != nil {
				errs[i] = fmt.Errorf("connection %d: %w", i, errs[i])
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (r *netRig) reclaimStats() (uint64, uint64) {
	a := r.srv.Audit()
	return a.Retired, a.Reclaimed
}

func (r *netRig) teardown(inserted, removed uint64) ([]string, error) {
	if err := r.close(); err != nil {
		return nil, err
	}
	var bad []string
	a := r.srv.Audit()
	if a.Retired != a.Reclaimed {
		bad = append(bad, fmt.Sprintf("after drain: retired %d != reclaimed %d", a.Retired, a.Reclaimed))
	}
	if a.Evictions != 0 || a.WatchdogFires != 0 {
		bad = append(bad, fmt.Sprintf("evictions %d, watchdog fires %d (want 0, 0)", a.Evictions, a.WatchdogFires))
	}
	r.shed = a.Shed
	if want := uint64(r.prefill) + inserted - removed; uint64(r.srv.Set().Len()) != want {
		bad = append(bad, fmt.Sprintf("size %d after the run, ledger says %d", r.srv.Set().Len(), want))
	}
	return bad, nil
}

// --- in-process rig -------------------------------------------------------

func (r *libRig) drive(p plan, in *inputs, recs []*recorder) error {
	var wg sync.WaitGroup
	for i := range recs {
		lw := newLibWorker(i, r, in.streams[i], recs[i], in.seed)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer lw.c.Epoch.Unregister()
			lw.run(p)
		}()
	}
	wg.Wait()
	return nil
}

func (r *libRig) reclaimStats() (uint64, uint64) { return r.dom.Stats() }

func (r *libRig) teardown(inserted, removed uint64) ([]string, error) {
	// Every record has unregistered: a few advances age all limbo out.
	for i := 0; i < 8; i++ {
		if ret, rec := r.dom.Stats(); ret == rec {
			break
		}
		r.dom.Advance()
	}
	var bad []string
	if ret, rec := r.dom.Stats(); ret != rec {
		bad = append(bad, fmt.Sprintf("after unregister: retired %d != reclaimed %d", ret, rec))
	}
	if want := uint64(r.prefill) + inserted - removed; uint64(r.set.Len()) != want {
		bad = append(bad, fmt.Sprintf("size %d after the run, ledger says %d", r.set.Len(), want))
	}
	return bad, nil
}
