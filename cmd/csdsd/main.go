// Command csdsd serves a csds structure over TCP in the memcache text
// dialect (get/gets/mget/set/delete plus the range/page cursor
// extension). Any composite registry spec can be served:
//
//	csdsd -addr :11211 -alg 'sharded(32,hashtable/lazy)' -ebr
//
// SIGTERM or SIGINT triggers a graceful drain: the listener closes,
// in-flight bursts finish and flush, every connection's EBR record is
// unregistered, and the reclamation domain is quiesced; the process
// exits nonzero if any retired node was left unreclaimed.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"csds/internal/fault"
	"csds/internal/server"

	_ "csds/internal/bst"
	_ "csds/internal/combinator"
	_ "csds/internal/hashtable"
	_ "csds/internal/list"
	_ "csds/internal/skiplist"
)

type daemonOpts struct {
	addr     string
	alg      string
	size     int
	ebr      bool
	inflight int
	burst    int
	drain    time.Duration
	idle     time.Duration
	watchdog time.Duration
	fault    string
	quiet    bool
}

func newFlags(stderr io.Writer) (*flag.FlagSet, *daemonOpts) {
	fs := flag.NewFlagSet("csdsd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := &daemonOpts{}
	fs.StringVar(&o.addr, "addr", "127.0.0.1:11211", "TCP listen address")
	fs.StringVar(&o.alg, "alg", "sharded(32,hashtable/lazy)", "algorithm spec to serve (any registry composite)")
	fs.IntVar(&o.size, "size", 1<<16, "expected steady-state element count (sizing hint)")
	fs.BoolVar(&o.ebr, "ebr", true, "attach an epoch-based reclamation domain")
	fs.IntVar(&o.inflight, "inflight", 128, "global in-flight request cap; excess sheds SERVER_ERROR busy (<0: unlimited)")
	fs.IntVar(&o.burst, "burst", 64, "max pipelined requests merged per read-loop turn")
	fs.DurationVar(&o.drain, "drain", 30*time.Second, "graceful drain budget after SIGTERM")
	fs.DurationVar(&o.idle, "idle-timeout", 0, "evict connections with no read or write progress for this long (0: never)")
	fs.DurationVar(&o.watchdog, "watchdog", time.Second, "EBR watchdog tick: expel wedged reclamation records (0: off)")
	fs.StringVar(&o.fault, "fault", "", "fault-injection schedule, e.g. 'chaos:seed=7' or 'shed.busy:every=50;conn.drop:p=0.001;seed=3' (empty: off)")
	fs.BoolVar(&o.quiet, "quiet", false, "suppress per-connection diagnostics")
	return fs, o
}

func run(args []string, stdout, stderr io.Writer) int {
	fs, o := newFlags(stderr)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	logger := log.New(stderr, "csdsd: ", log.LstdFlags)
	plan, err := fault.ParsePlan(o.fault)
	if err != nil {
		fmt.Fprintln(stderr, "csdsd: -fault:", err)
		return 2
	}
	cfg := server.Config{
		Spec:         o.alg,
		Size:         o.size,
		UseEBR:       o.ebr,
		MaxInflight:  o.inflight,
		MaxBurst:     o.burst,
		IdleTimeout:  o.idle,
		WatchdogTick: o.watchdog,
		Fault:        plan,
	}
	if !o.quiet {
		cfg.Logf = logger.Printf
	}
	srv, err := server.New(cfg)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	serveErr := make(chan error, 1)
	go func() {
		logger.Printf("serving %s on %s (ebr=%v inflight=%d)", o.alg, o.addr, o.ebr, o.inflight)
		serveErr <- srv.ListenAndServe(o.addr)
	}()

	select {
	case err := <-serveErr:
		// Listener failed before any signal (bad address, port in use).
		fmt.Fprintln(stderr, err)
		return 1
	case sig := <-sigs:
		logger.Printf("%v: draining (budget %v)", sig, o.drain)
	}

	ctx, cancel := context.WithTimeout(context.Background(), o.drain)
	defer cancel()
	drainErr := srv.Shutdown(ctx)
	<-serveErr // Serve returns nil once the listener closes under drain

	a := srv.Audit()
	fmt.Fprintf(stdout, "csdsd: drained: conns=%d ops=%d shed=%d evictions=%d watchdog_fires=%d combine_stalls=%d faults=%d lock_waits=%d restarts=%d retired=%d reclaimed=%d\n",
		a.Conns, a.Ops, a.Shed, a.Evictions, a.WatchdogFires, a.CombineStalls, a.Faults, a.LockWaits, a.Restarts, a.Retired, a.Reclaimed)
	if t := srv.FaultTally(); t != nil {
		fmt.Fprintf(stdout, "csdsd: fault fires: %s\n", t)
	}
	if drainErr != nil {
		fmt.Fprintln(stderr, "csdsd: drain:", drainErr)
		return 1
	}
	if a.Retired != a.Reclaimed {
		fmt.Fprintf(stderr, "csdsd: reclamation leak: retired %d != reclaimed %d\n", a.Retired, a.Reclaimed)
		return 1
	}
	return 0
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
