// Paginated-iteration conformance battery: RunAll checks that a
// core.Cursor implementation pages correctly — sequential exactness
// against a model, bounded page budgets, early stop, a round-trippable
// and corruption-rejecting token, and, under concurrent insert/remove
// churn, the anchor-consistency contract of resumable iteration:
//
//   - the union of all pages of one iteration never reports a key twice
//     (pages cover disjoint, advancing key windows);
//   - an anchor key (present, untouched, for the whole iteration) is
//     reported exactly once, with its original value — resuming from a
//     token never skips it and never re-reports it;
//   - keys never inserted never appear, and every page is ascending, so
//     the whole union is ascending (cursors promise key order on every
//     structure, hash tables included);
//   - tokens survive churn: an iteration that round-trips its token
//     through Encode/Decode/ResumeCursor between every two pages sees
//     exactly the same guarantees, because no server-side state exists.
//
// On a core.Resizable set, RunAll re-runs the concurrent body while the
// partition width grows and shrinks, so elastic composites prove their
// pagination correct across concurrent Resizes: a token minted under an
// 8-shard map must resume seamlessly under a 2- or 16-shard one. Every
// Cursor also gets the page-cost check (testCursorPageCost).

package settest

import (
	"fmt"
	"sync"
	"testing"

	"csds/internal/core"
	"csds/internal/xrand"
)

// testCursorPageCost pins the page-cost contract of the Cursor extension
// — O(page), never O(structure) — using the refill counters of the page
// machinery (stats.Thread.PagePulls / PagePullKeys): a full paginated
// iteration over a pre-filled structure must deliver every key exactly
// once, in ascending order, while materializing O(pages·page) keys in
// total, not O(pages·table). The hash tables are the motivating case
// (their ordered key index replaced an O(table) collect-and-sort per
// page, which this check would count at ~table/page times the budget),
// but every Cursor implementation must pass.
func testCursorPageCost(t *testing.T, f Factory) {
	const n = 10000
	const page = 100
	s := f(core.Options{ExpectedSize: n, KeySpan: 2 * n})
	fill := ctx()
	// Descending, so every insert into a sorted list lands at its head.
	for i := core.Key(n - 1); i >= 0; i-- {
		if !s.Put(fill, 2*i, core.Value(i)) { // even keys over [0, 2n)
			t.Fatalf("fill insert %d failed", 2*i)
		}
	}
	c := ctx() // fresh stats slot: only the iteration's pulls count
	cur := s.(core.Cursor)
	pos, last := core.Key(0), core.Key(-1)
	total, pages := 0, 0
	for {
		var done bool
		pos, done = cur.CursorNext(c, pos, 2*n, page, func(k core.Key, v core.Value) bool {
			if k <= last {
				t.Fatalf("page delivered %d after %d: not ascending", k, last)
			}
			last = k
			total++
			return true
		})
		pages++
		if pages > n {
			t.Fatal("iteration never finished")
		}
		if done {
			break
		}
	}
	if total != n {
		t.Fatalf("iteration delivered %d keys, want %d", total, n)
	}
	if c.Stats.PagePulls == 0 || c.Stats.PagePullKeys == 0 {
		t.Fatal("page collects recorded no pulls: the refill counters are not wired")
	}
	// O(pages·page) with generous slack for seeks and boundary
	// refills; an O(pages·table) protocol would materialize about
	// (n/page)·n — n/page (100) times the delivered keys.
	if budget := uint64(4 * total); c.Stats.PagePullKeys > budget {
		t.Fatalf("full iteration materialized %d keys for %d delivered over %d pages — O(pages·page) bound (%d) exceeded",
			c.Stats.PagePullKeys, total, pages, budget)
	}
}

// paginate drives one full paginated iteration over [lo, hi), returning
// the union of all pages. Pages use the given budget; when resume is
// set, the token round-trips through Encode/Decode/ResumeCursor between
// every two pages (proving no server-side state is pinned). Violations
// of the per-page contract are reported as a non-empty string so churn
// goroutines can use it too.
func paginate(c *core.Ctx, s core.Set, lo, hi core.Key, pageSize int, resume bool) ([]core.ScanPair, string) {
	pc, err := core.OpenCursor(s, lo, hi)
	if err != nil {
		return nil, fmt.Sprintf("OpenCursor: %v", err)
	}
	var union []core.ScanPair
	// A page that is not done delivers at least one key, so a full
	// iteration takes at most one page per key plus the final one.
	maxPages := int(hi-lo) + 2
	for pages := 0; !pc.Done(); pages++ {
		if pages > maxPages {
			return nil, fmt.Sprintf("cursor over [%d, %d) still not done after %d pages", lo, hi, pages)
		}
		n := 0
		tok, done := pc.Next(c, pageSize, func(k core.Key, v core.Value) bool {
			union = append(union, core.ScanPair{K: k, V: v})
			n++
			return true
		})
		if n > pageSize && pageSize >= 1 {
			return nil, fmt.Sprintf("page delivered %d keys over budget %d", n, pageSize)
		}
		if !done && n == 0 {
			return nil, fmt.Sprintf("page over [%d, %d) delivered nothing but reported done=false", lo, hi)
		}
		if resume && !done {
			pc, err = core.ResumeCursor(s, tok)
			if err != nil {
				return nil, fmt.Sprintf("ResumeCursor(%q): %v", tok, err)
			}
		}
	}
	return union, ""
}

// testCursorSequential checks pagination against a model map with no
// concurrency: for every window and page size, the union of pages must
// equal the model slice exactly, in ascending order.
func testCursorSequential(t *testing.T, f Factory) {
	s := f(scanOptions())
	c := ctx()
	rng := xrand.New(20260729)
	model := map[core.Key]core.Value{}
	pageSizes := []int{1, 3, 8, 64}
	for i := 0; i < 2000; i++ {
		k := core.Key(rng.Int63n(scanKeySpan))
		switch rng.Uint64n(3) {
		case 0:
			if _, in := model[k]; !in {
				model[k] = core.Value(i)
			}
			s.Put(c, k, core.Value(i))
		case 1:
			delete(model, k)
			s.Remove(c, k)
		}
		if i%100 != 0 {
			continue
		}
		lo := core.Key(rng.Int63n(scanKeySpan))
		hi := lo + core.Key(1+rng.Int63n(200))
		got, msg := paginate(c, s, lo, hi, pageSizes[(i/100)%len(pageSizes)], i%200 == 0)
		if msg != "" {
			t.Fatalf("step %d: %s", i, msg)
		}
		want := 0
		for k := range model {
			if k >= lo && k < hi {
				want++
			}
		}
		if len(got) != want {
			t.Fatalf("step %d: pagination of [%d, %d) returned %d keys, model has %d", i, lo, hi, len(got), want)
		}
		if msg := snapshotViolation(got, lo, hi, nil, func(k core.Key) bool {
			_, in := model[k]
			return in
		}); msg != "" {
			t.Fatalf("step %d: %s", i, msg)
		}
		for _, p := range got {
			if model[p.K] != p.V {
				t.Fatalf("step %d: pagination returned (%d, %d), model has value %d", i, p.K, p.V, model[p.K])
			}
		}
	}
	// Full-domain pagination equals the model.
	if got, msg := paginate(c, s, 0, scanKeySpan, 7, true); msg != "" {
		t.Fatal(msg)
	} else if len(got) != len(model) {
		t.Fatalf("full pagination returned %d keys, model has %d", len(got), len(model))
	}
}

// testCursorPageBudget pins the page-budget arithmetic on a dense fill:
// exact page count, exact page sizes, done exactly at the end.
func testCursorPageBudget(t *testing.T, f Factory) {
	s := f(scanOptions())
	c := ctx()
	for k := core.Key(0); k < 100; k++ {
		s.Put(c, k, k)
	}
	pc, err := core.OpenCursor(s, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	pages := 0
	total := 0
	for !pc.Done() {
		n := 0
		_, done := pc.Next(c, 10, func(k core.Key, v core.Value) bool {
			if k != core.Key(total) || v != core.Value(total) {
				t.Fatalf("page %d visited (%d, %d), want (%d, %d)", pages, k, v, total, total)
			}
			n++
			total++
			return true
		})
		pages++
		if n != 10 {
			t.Fatalf("page %d delivered %d keys on a dense fill, want 10", pages, n)
		}
		if done != (total == 100) {
			t.Fatalf("page %d reported done=%v after %d keys", pages, done, total)
		}
		if pages > 10 {
			t.Fatal("dense fill took more than 10 pages of 10")
		}
	}
	if pages != 10 || total != 100 {
		t.Fatalf("dense fill paged as %d pages / %d keys, want 10 / 100", pages, total)
	}
	// A zero/negative budget clamps to 1 and still makes progress.
	pc, _ = core.OpenCursor(s, 0, 100)
	n := 0
	if _, done := pc.Next(c, 0, func(core.Key, core.Value) bool { n++; return true }); done || n != 1 {
		t.Fatalf("clamped page visited %d keys (done=%v), want 1 key, not done", n, done)
	}
}

// testCursorEarlyStop checks the early-termination contract: a callback
// that stops mid-page ends the page after exactly its keys, and the
// returned token resumes precisely at the next key — nothing skipped,
// nothing re-delivered.
func testCursorEarlyStop(t *testing.T, f Factory) {
	s := f(scanOptions())
	c := ctx()
	for k := core.Key(0); k < 50; k++ {
		s.Put(c, k, k)
	}
	pc, err := core.OpenCursor(s, 0, 50)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	tok, done := pc.Next(c, 20, func(core.Key, core.Value) bool {
		calls++
		return calls < 7
	})
	if done || calls != 7 {
		t.Fatalf("early stop: Next reported done=%v after %d calls, want false after 7", done, calls)
	}
	rc, err := core.ResumeCursor(s, tok)
	if err != nil {
		t.Fatal(err)
	}
	var got []core.Key
	for !rc.Done() {
		rc.Next(c, 20, func(k core.Key, v core.Value) bool {
			got = append(got, k)
			return true
		})
	}
	if len(got) != 43 || got[0] != 7 || got[len(got)-1] != 49 {
		t.Fatalf("resume after early stop delivered %d keys [%v..], want 43 starting at 7", len(got), got[0])
	}
}

// testCursorTokenCodec checks the opaque-token contract end to end
// against a live structure: round-trip identity, rejection of corrupt
// tokens (error, never panic, never a silently different window), and
// resume equivalence.
func testCursorTokenCodec(t *testing.T, f Factory) {
	s := f(scanOptions())
	c := ctx()
	for k := core.Key(0); k < 64; k++ {
		s.Put(c, k, k)
	}
	pc, err := core.OpenCursor(s, 10, 60)
	if err != nil {
		t.Fatal(err)
	}
	tok, _ := pc.Next(c, 5, func(core.Key, core.Value) bool { return true })
	dec, err := core.DecodeCursorToken(tok)
	if err != nil {
		t.Fatalf("decoding a live token: %v", err)
	}
	if dec.Lo != 10 || dec.Hi != 60 || dec.Pos != 15 {
		t.Fatalf("live token decoded to %+v, want {Lo:10 Hi:60 Pos:15}", dec)
	}
	if dec.Encode() != tok {
		t.Fatal("token round-trip changed the wire form")
	}
	for _, corrupt := range []string{"", "not-a-token", tok[:len(tok)-1], tok + "x"} {
		if _, err := core.ResumeCursor(s, corrupt); err == nil {
			t.Fatalf("corrupt token %q resumed without error", corrupt)
		}
	}
	// Bit-level corruption of a real token must be rejected too.
	for i := 0; i < len(tok); i += 5 {
		alt := byte('A')
		if tok[i] == alt {
			alt = 'B'
		}
		if _, err := core.ResumeCursor(s, tok[:i]+string(alt)+tok[i+1:]); err == nil {
			t.Fatalf("token with flipped char %d resumed without error", i)
		}
	}
}

// runCursorUnderChurn is the concurrent heart of the battery: anchors
// (even keys, never updated after setup) interleave with churn keys (odd
// keys, hammered by updaters) while paginators run full iterations over
// random windows with random page budgets, half of them round-tripping
// the token between pages. Every iteration's union must satisfy
// snapshotViolation — in particular no anchor may be missed or
// double-reported across a whole paginated iteration, which is exactly
// the no-lost-keys/no-duplicates contract of resumable cursors. The
// structure is taken pre-built so the under-resize arm can race the same
// body against Resize.
func runCursorUnderChurn(t *testing.T, s core.Set) {
	c0 := ctx()
	anchors := map[core.Key]core.Value{}
	for k := core.Key(0); k < scanKeySpan; k += 2 {
		if !s.Put(c0, k, anchorVal(k)) {
			t.Fatalf("anchor insert %d failed", k)
		}
		anchors[k] = anchorVal(k)
	}
	churnOK := func(k core.Key) bool { return k%2 == 1 }

	const updaters = 4
	const paginators = 2
	iters := scale(3000)
	runs := scale(60) // full paginated iterations per paginator
	var wg sync.WaitGroup
	for w := 0; w < updaters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := core.NewCtx(w)
			rng := xrand.New(uint64(w)*2654435761 + 13)
			for i := 0; i < iters; i++ {
				k := core.Key(1 + 2*rng.Int63n(scanKeySpan/2)) // odd keys only
				if rng.Bool(0.5) {
					s.Put(c, k, k)
				} else {
					s.Remove(c, k)
				}
			}
		}(w)
	}
	errs := make(chan string, paginators)
	for r := 0; r < paginators; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c := core.NewCtx(100 + r)
			rng := xrand.New(uint64(r) + 777)
			for i := 0; i < runs; i++ {
				lo := core.Key(rng.Int63n(scanKeySpan))
				hi := lo + core.Key(1+rng.Int63n(256))
				if hi > scanKeySpan {
					hi = scanKeySpan
				}
				page := 1 + int(rng.Uint64n(32))
				got, msg := paginate(c, s, lo, hi, page, i%2 == 0)
				if msg == "" {
					msg = snapshotViolation(got, lo, hi, anchors, churnOK)
				}
				if msg != "" {
					select {
					case errs <- msg:
					default:
					}
					return
				}
			}
		}(r)
	}
	wg.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}
	// Quiesced: one full pagination must now be exact — anchors plus
	// whatever odd keys survived, matching Get key by key and Len.
	got, msg := paginate(c0, s, 0, scanKeySpan, 17, true)
	if msg != "" {
		t.Fatal(msg)
	}
	if msg := snapshotViolation(got, 0, scanKeySpan, anchors, churnOK); msg != "" {
		t.Fatal(msg)
	}
	for _, p := range got {
		if v, in := s.Get(c0, p.K); !in || v != p.V {
			t.Fatalf("quiesced pagination returned (%d, %d) but Get says (%d, %v)", p.K, p.V, v, in)
		}
	}
	if want := s.Len(); len(got) != want {
		t.Fatalf("quiesced full pagination returned %d keys, Len reports %d", len(got), want)
	}
}
