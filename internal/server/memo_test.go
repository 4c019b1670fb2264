package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/graphio"
	"repro/internal/pipeline"
)

// memoCounts reads the workload memo's hit and miss counters.
func memoCounts(t *testing.T, ts *httptest.Server) (hits, misses float64) {
	t.Helper()
	text := scrape(t, ts)
	return metricValue(t, text, `pland_workload_memo_total{result="hit"}`),
		metricValue(t, text, `pland_workload_memo_total{result="miss"}`)
}

// TestWorkloadMemoParsesOnce: the same bytes posted again are served
// off the memo, so only the first post parses, and every post gets the
// same answer.
func TestWorkloadMemoParsesOnce(t *testing.T) {
	srv := New(Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	body := workloadBody(t, 41)

	var first []byte
	for i := 0; i < 3; i++ {
		resp, raw := postPlan(t, ts, "", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("post %d: status %d (%s)", i, resp.StatusCode, raw)
		}
		if i == 0 {
			first = raw
		} else if !bytes.Equal(raw, first) {
			t.Fatalf("post %d answered differently from the parsed one", i)
		}
	}
	if hits, misses := memoCounts(t, ts); hits != 2 || misses != 1 {
		t.Fatalf("memo hits/misses = %g/%g, want 2/1", hits, misses)
	}

	// Concurrent posts of the memoised body all hit and share one entry.
	const clients = 8
	var wg sync.WaitGroup
	codes := make([]int, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/plan", "application/json", bytes.NewReader(body))
			if err != nil {
				return
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			codes[i] = resp.StatusCode
		}(i)
	}
	wg.Wait()
	for i, c := range codes {
		if c != http.StatusOK {
			t.Fatalf("concurrent post %d: status %d", i, c)
		}
	}
	if hits, misses := memoCounts(t, ts); hits != 2+clients || misses != 1 {
		t.Fatalf("memo hits/misses = %g/%g, want %d/1", hits, misses, 2+clients)
	}
	if n := srv.memo.len(); n != 1 {
		t.Fatalf("memo holds %d entries, want 1", n)
	}
	if got := metricValue(t, scrape(t, ts), "pland_builds_total"); got != 1 {
		t.Fatalf("pland_builds_total = %g, want 1", got)
	}
}

// TestWorkloadMemoSkipsRejected: a body the parse rejects is never
// memoised, so it is parsed and rejected again with the same answer.
func TestWorkloadMemoSkipsRejected(t *testing.T) {
	srv := New(Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// A well-formed workload without a platform: it parses as JSON but
	// the planner refuses it.
	cfg := gen.Default(3)
	cfg.Seed = 42
	w := gen.MustGenerate(cfg)
	var noPlatform bytes.Buffer
	if err := graphio.WriteWorkload(&noPlatform, w.Graph, nil); err != nil {
		t.Fatal(err)
	}
	for _, body := range [][]byte{[]byte("not json"), noPlatform.Bytes()} {
		resp1, raw1 := postPlan(t, ts, "", body)
		resp2, raw2 := postPlan(t, ts, "", body)
		if resp1.StatusCode != http.StatusUnprocessableEntity || resp2.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("statuses %d, %d, want 422 twice", resp1.StatusCode, resp2.StatusCode)
		}
		if !bytes.Equal(raw1, raw2) {
			t.Fatalf("rejections differ:\n%s\n%s", raw1, raw2)
		}
	}
	if hits, misses := memoCounts(t, ts); hits != 0 || misses != 4 {
		t.Fatalf("memo hits/misses = %g/%g, want 0/4", hits, misses)
	}
	if n := srv.memo.len(); n != 0 {
		t.Fatalf("memo holds %d entries, want 0", n)
	}
}

// TestWorkloadMemoByteDifferentBody: an equal workload in different
// bytes misses the memo and is parsed, yet still lands on the resident
// plan: one cold build for both bodies.
func TestWorkloadMemoByteDifferentBody(t *testing.T) {
	ts := httptest.NewServer(New(Options{}).Handler())
	defer ts.Close()
	body := workloadBody(t, 43)
	spaced := append([]byte(" \n\t"), body...)

	resp1, raw1 := postPlan(t, ts, "", body)
	resp2, raw2 := postPlan(t, ts, "", spaced)
	if resp1.StatusCode != http.StatusOK || resp2.StatusCode != http.StatusOK {
		t.Fatalf("statuses %d, %d, want 200 twice", resp1.StatusCode, resp2.StatusCode)
	}
	if !bytes.Equal(raw1, raw2) {
		t.Fatal("equal workloads answered differently")
	}
	if hits, misses := memoCounts(t, ts); hits != 0 || misses != 2 {
		t.Fatalf("memo hits/misses = %g/%g, want 0/2", hits, misses)
	}
	text := scrape(t, ts)
	if got := metricValue(t, text, "pland_builds_total"); got != 1 {
		t.Fatalf("pland_builds_total = %g, want exactly 1", got)
	}
	if got := metricValue(t, text, "pland_cache_hits_total"); got != 1 {
		t.Fatalf("pland_cache_hits_total = %g, want 1", got)
	}
}

// TestWorkloadMemoForwardsIdenticalBytes: a non-owner that answers the
// routing question from the memo still forwards the client's exact
// bytes, so the owner's memo hits too.
func TestWorkloadMemoForwardsIdenticalBytes(t *testing.T) {
	nodes, ring := newWarmFleet(t, 2, Options{}, warmCopt())
	p0, p1 := byName(t, nodes, "p0"), byName(t, nodes, "p1")
	body, _ := warmSeed(t, ring, p1.srv, "p1")

	var mu sync.Mutex
	var received [][]byte
	p1.h.Store(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/plan" {
			raw, err := io.ReadAll(r.Body)
			if err != nil {
				t.Error(err)
			}
			mu.Lock()
			received = append(received, raw)
			mu.Unlock()
			r.Body = io.NopCloser(bytes.NewReader(raw))
		}
		p1.srv.Handler().ServeHTTP(w, r)
	}))

	for i := 0; i < 2; i++ {
		if resp, raw := postPlan(t, p0.ts, "", body); resp.StatusCode != http.StatusOK {
			t.Fatalf("post %d: status %d (%s)", i, resp.StatusCode, raw)
		}
	}
	if hits, misses := memoCounts(t, p0.ts); hits != 1 || misses != 1 {
		t.Fatalf("p0 memo hits/misses = %g/%g, want 1/1", hits, misses)
	}
	if got := metricValue(t, scrape(t, p0.ts), `pland_routed_total{direction="out"}`); got != 2 {
		t.Fatalf("p0 routed out %g requests, want 2", got)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(received) != 2 {
		t.Fatalf("owner received %d plan requests, want 2", len(received))
	}
	for i, raw := range received {
		if !bytes.Equal(raw, body) {
			t.Fatalf("forward %d carried %d bytes that differ from the client's %d", i, len(raw), len(body))
		}
	}
	if hits, misses := memoCounts(t, p1.ts); hits != 1 || misses != 1 {
		t.Fatalf("p1 memo hits/misses = %g/%g, want 1/1", hits, misses)
	}
}

// TestWorkloadMemoBounded: the memo never holds more than
// CacheCapacity entries and evicts the least recently used body.
func TestWorkloadMemoBounded(t *testing.T) {
	const capacity = 3
	srv := New(Options{CacheCapacity: capacity})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	bodies := make([][]byte, 5)
	for i := range bodies {
		bodies[i] = workloadBody(t, 50+int64(i))
		if resp, raw := postPlan(t, ts, "", bodies[i]); resp.StatusCode != http.StatusOK {
			t.Fatalf("post %d: status %d (%s)", i, resp.StatusCode, raw)
		}
		if n := srv.memo.len(); n > capacity {
			t.Fatalf("after %d bodies the memo holds %d entries, cap %d", i+1, n, capacity)
		}
	}
	// The newest body is resident; the oldest was evicted and parses again.
	postPlan(t, ts, "", bodies[4])
	postPlan(t, ts, "", bodies[0])
	if hits, misses := memoCounts(t, ts); hits != 1 || misses != 6 {
		t.Fatalf("memo hits/misses = %g/%g, want 1/6", hits, misses)
	}
	if n := srv.memo.len(); n != capacity {
		t.Fatalf("memo holds %d entries, want %d", n, capacity)
	}
}

// TestWorkloadMemoBatchItems: /plan/batch items share the memo with
// /plan bodies.
func TestWorkloadMemoBatchItems(t *testing.T) {
	ts := httptest.NewServer(New(Options{}).Handler())
	defer ts.Close()
	// Compact, so the item bytes survive json.Marshal of the batch.
	var compact bytes.Buffer
	if err := json.Compact(&compact, workloadBody(t, 44)); err != nil {
		t.Fatal(err)
	}
	body := compact.Bytes()
	if resp, raw := postPlan(t, ts, "", body); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (%s)", resp.StatusCode, raw)
	}
	resp, br, raw := postBatch(t, ts.URL, "", BatchRequest{Items: []BatchItem{{Workload: body}, {Workload: body}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d (%s)", resp.StatusCode, raw)
	}
	for i, it := range br.Items {
		if it.Status != BatchPlanned {
			t.Fatalf("item %d: %+v, want planned", i, it)
		}
	}
	if hits, misses := memoCounts(t, ts); hits != 2 || misses != 1 {
		t.Fatalf("memo hits/misses = %g/%g, want 2/1", hits, misses)
	}
}

// TestWorkloadMemoConcurrent drives misses, hits and evictions of one
// small memo from several goroutines at once: every lookup returns the
// workload its own bytes parse to, and the memo stays within its cap.
func TestWorkloadMemoConcurrent(t *testing.T) {
	const capacity = 2
	srv := New(Options{CacheCapacity: capacity})
	bodies := make([][]byte, 4)
	want := make([]uint64, len(bodies))
	for i := range bodies {
		bodies[i] = workloadBody(t, 60+int64(i))
		g, p, err := readWorkload(bodies[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = pipeline.Fingerprint(g, p)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < 25; k++ {
				i := (w + k) % len(bodies)
				wl, err := srv.workload(bodies[i])
				if err != nil {
					t.Error(err)
					return
				}
				if wl.fp != want[i] || pipeline.Fingerprint(wl.g, wl.p) != want[i] {
					t.Errorf("body %d came back as workload %x, want %x", i, wl.fp, want[i])
					return
				}
				if n := srv.memo.len(); n > capacity {
					t.Errorf("memo holds %d entries, cap %d", n, capacity)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := srv.memoHits.Load() + srv.memoMisses.Load(); got != 100 {
		t.Fatalf("hits+misses = %d, want 100", got)
	}
}
