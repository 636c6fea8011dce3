// Networked mode: -net host:port turns csdsbench into a closed-loop
// memcache-text client of a running csdsd, reusing the same workload
// generator, mix flags, and reporting path as the in-process harness.
// Each worker goroutine owns one connection and drives one operation at
// a time (closed loop), so the measured throughput is requests actually
// completed over the wire, with batched ops traveling as pipelined
// bursts (mget, pipelined set/delete trains) exactly the way the server
// merges them into core.Batcher batches.
package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"csds/internal/core"
	"csds/internal/fault"
	"csds/internal/harness"
	"csds/internal/server"
	"csds/internal/stats"
	"csds/internal/workload"
	"csds/internal/xrand"
)

// netPagePull bounds one range pull in the one-shot scan path (the
// server caps pages at its own limit; staying under it avoids a
// CLIENT_ERROR on huge scan windows).
const netPagePull = 1024

// netRun drives the configured workload against a remote csdsd and
// folds the per-worker counters into the same Result the local harness
// produces. Server-side effects the client cannot observe (EBR, HTM,
// resizes) stay zero in the Result; the CSV's net column marks the row
// so those zeros are never mistaken for local measurements. With a
// fault plan armed the duration-driven loop is replaced by the
// fixed-budget wire chaos cell (chaos.go), whose returned info the text
// report renders.
func netRun(addr string, cfg harness.Config, plan *fault.Plan) (harness.Result, netChaosInfo, error) {
	if plan != nil {
		return netChaosRun(addr, cfg, plan)
	}
	if cfg.Threads <= 0 {
		cfg.Threads = 1
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 100 * time.Millisecond
	}
	if cfg.Runs <= 0 {
		cfg.Runs = 1
	}
	if cfg.Seed == 0 {
		cfg.Seed = 0xD1CE
	}
	cfg.Workload = cfg.Workload.WithDefaults()
	gen := workload.NewGenerator(cfg.Workload)

	if err := netPrefill(addr, gen.Config()); err != nil {
		return harness.Result{}, netChaosInfo{}, err
	}
	agg := harness.Result{Config: cfg}
	for r := 0; r < cfg.Runs; r++ {
		res, err := netRunOnce(addr, cfg, gen, uint64(r))
		if err != nil {
			return harness.Result{}, netChaosInfo{}, err
		}
		agg.Accumulate(&res, cfg.Runs)
	}
	return agg, netChaosInfo{}, nil
}

// netPrefill fills the remote structure to steady state the way
// Generator.Fill does locally — every other key, over the wire, in
// pipelined trains so the fill is bursts, not round trips. Keys already
// present (a warm server from a previous cell) answer NOT_STORED, which
// is exactly the idempotence prefill wants.
func netPrefill(addr string, w workload.Config) error {
	c, err := server.DialRetry(addr, 5*time.Second)
	if err != nil {
		return err
	}
	defer c.Close()
	const train = 256
	pending := 0
	flush := func() error {
		if err := c.Flush(); err != nil {
			return err
		}
		for ; pending > 0; pending-- {
			if _, err := c.RecvStored(); err != nil {
				return err
			}
		}
		return nil
	}
	n := 0
	for k := int64(1); k <= w.KeySpace && n < w.Size; k += 2 {
		if err := c.PipeSet(core.Key(k), core.Value(k)); err != nil {
			return err
		}
		pending++
		n++
		if pending == train {
			if err := flush(); err != nil {
				return fmt.Errorf("csdsbench: prefill: %w", err)
			}
		}
	}
	if err := flush(); err != nil {
		return fmt.Errorf("csdsbench: prefill: %w", err)
	}
	return nil
}

func netRunOnce(addr string, cfg harness.Config, gen *workload.Generator, round uint64) (harness.Result, error) {
	ths := make([]stats.Thread, cfg.Threads)
	clients := make([]*server.Client, cfg.Threads)
	for w := range clients {
		c, err := server.Dial(addr)
		if err != nil {
			for _, pc := range clients[:w] {
				pc.Close()
			}
			return harness.Result{}, fmt.Errorf("csdsbench: %w", err)
		}
		clients[w] = c
	}
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()

	var stop atomic.Bool
	errs := make([]error, cfg.Threads)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < cfg.Threads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			errs[w] = netWorker(clients[w], gen, cfg, &ths[w], w, round, &stop)
		}(w)
	}
	close(start)
	timer := time.AfterFunc(cfg.Duration, func() { stop.Store(true) })
	wg.Wait()
	timer.Stop()
	for _, err := range errs {
		if err != nil {
			return harness.Result{}, fmt.Errorf("csdsbench: net worker: %w", err)
		}
	}
	return harness.SummarizeThreads(cfg, ths), nil
}

// netWorker is one closed-loop connection: the same operation mix as the
// local harness, with the Multi* classes traveling as pipelined trains
// and paginated scans resuming via the wire cursor token.
func netWorker(c *server.Client, gen *workload.Generator, cfg harness.Config, th *stats.Thread, w int, round uint64, stop *atomic.Bool) error {
	rng := xrand.New(cfg.Seed ^ (uint64(w)+1)*0x9e3779b97f4a7c15 ^ round<<32)
	keyBuf := make([]core.Key, 0, 64)
	valBuf := make([]core.Value, 0, 64)
	okBuf := make([]bool, 0, 64)
	t0 := time.Now()
	defer func() { th.ActiveNs = uint64(time.Since(t0)) }()
	for !stop.Load() {
		switch op := gen.NextOp(rng); op {
		case workload.OpGet:
			_, hit, err := c.Get(gen.Key(rng))
			if err != nil {
				return err
			}
			th.RecordRead(hit)
		case workload.OpPut:
			k := gen.Key(rng)
			stored, err := c.Set(k, core.Value(k))
			if err != nil {
				return err
			}
			th.RecordInsert(stored)
		case workload.OpRemove:
			ok, err := c.Delete(gen.Key(rng))
			if err != nil {
				return err
			}
			th.RecordRemove(ok)
		case workload.OpScan:
			// One-shot scan: pull the whole window through the cursor
			// extension, timed and recorded as a single scan like the
			// local Ranger path.
			lo, hi := gen.ScanRange(rng)
			keys := 0
			scanStart := time.Now()
			token, done, err := c.Range(lo, hi, netPagePull, func(core.Key, core.Value) { keys++ })
			for err == nil && !done {
				token, done, err = c.Page(token, netPagePull, func(core.Key, core.Value) { keys++ })
			}
			if err != nil {
				return err
			}
			th.RecordScan(keys, uint64(time.Since(scanStart)))
		case workload.OpCursorScan:
			// Paginated scan: PageLen-sized pages, each its own round
			// trip resumed from the returned token — the wire twin of the
			// local PageCursor loop.
			lo, hi := gen.ScanRange(rng)
			var token string
			var done bool
			var err error
			first := true
			for !done {
				keys := 0
				n := int(gen.PageLen(rng))
				pageStart := time.Now()
				if first {
					token, done, err = c.Range(lo, hi, n, func(core.Key, core.Value) { keys++ })
					first = false
				} else {
					token, done, err = c.Page(token, n, func(core.Key, core.Value) { keys++ })
				}
				if err != nil {
					return err
				}
				th.RecordPage(keys, uint64(time.Since(pageStart)))
			}
			th.RecordCursorScan()
		case workload.OpMultiGet:
			n := int(gen.BatchLen(rng))
			keyBuf = keyBuf[:0]
			for i := 0; i < n; i++ {
				keyBuf = append(keyBuf, gen.Key(rng))
			}
			valBuf = append(valBuf[:0], make([]core.Value, n)...)
			okBuf = append(okBuf[:0], make([]bool, n)...)
			batchStart := time.Now()
			if err := c.MultiGet(keyBuf, valBuf, okBuf); err != nil {
				return err
			}
			th.RecordBatch(n, uint64(time.Since(batchStart)))
		case workload.OpMultiPut, workload.OpMultiRemove:
			// Batched updates travel as one pipelined train: n requests,
			// one flush, n replies — the burst shape the server answers
			// with a single reply write.
			n := int(gen.BatchLen(rng))
			batchStart := time.Now()
			for i := 0; i < n; i++ {
				k := gen.Key(rng)
				var err error
				if op == workload.OpMultiPut {
					err = c.PipeSet(k, core.Value(k))
				} else {
					err = c.PipeDelete(k)
				}
				if err != nil {
					return err
				}
			}
			if err := c.Flush(); err != nil {
				return err
			}
			for i := 0; i < n; i++ {
				var err error
				if op == workload.OpMultiPut {
					_, err = c.RecvStored()
				} else {
					_, err = c.RecvDeleted()
				}
				if err != nil {
					return err
				}
			}
			th.RecordBatch(n, uint64(time.Since(batchStart)))
		}
	}
	return nil
}
