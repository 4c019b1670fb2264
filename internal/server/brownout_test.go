package server

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/slicing"
)

// forceBrownout drives srv's admission controller to the wanted rung by
// feeding one synthetic over-rung window on a frozen clock, then pins
// the admit fraction back to 1 so only the ladder — not the AIMD coin —
// shapes the requests under test. The frozen clock keeps further
// windows from closing, so the rung holds for the rest of the test.
func forceBrownout(srv *Server, level brownoutLevel) {
	// Start ahead of any window already open — real-clock ones from
	// earlier requests, or a previous forceBrownout's frozen one — so
	// this clock can close windows.
	clock := time.Now().Add(time.Hour)
	srv.adm.mu.Lock()
	if srv.adm.windowEnd.After(clock) {
		clock = srv.adm.windowEnd
	}
	srv.adm.mu.Unlock()
	srv.adm.now = func() time.Time { return clock }
	var worst time.Duration
	switch level {
	case brownoutCheap:
		worst = srv.adm.opt.CheapAt
	case brownoutCacheOnly:
		worst = srv.adm.opt.CacheOnlyAt
	}
	srv.adm.observe(worst)
	clock = clock.Add(srv.adm.opt.Window)
	if got := srv.adm.currentLevel(); got != level {
		panic("forceBrownout: level " + got.String() + ", want " + level.String())
	}
	srv.adm.mu.Lock()
	srv.adm.frac = 1
	srv.adm.shedOptional = false
	srv.adm.mu.Unlock()
}

// planResp decodes the interesting fields of a /plan answer.
type planResp struct {
	Metric     string  `json:"metric"`
	Dispatcher string  `json:"dispatcher"`
	Quality    string  `json:"quality"`
	Feasible   bool    `json:"feasible"`
	PlanningMS float64 `json:"planningMS"`
}

func TestQualityFullOnNormalServe(t *testing.T) {
	srv := New(Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, raw := postPlan(t, ts, "metric=ADAPT-L", workloadBody(t, 31))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (%s)", resp.StatusCode, raw)
	}
	if q := resp.Header.Get("X-Plan-Quality"); q != "full" {
		t.Fatalf("X-Plan-Quality = %q, want full", q)
	}
	var pr planResp
	mustUnmarshal(t, raw, &pr)
	if pr.Quality != "full" || pr.Metric != slicing.AdaptL().Name() {
		t.Fatalf("quality %q metric %q, want full/%s", pr.Quality, pr.Metric, slicing.AdaptL().Name())
	}
	if got := metricValue(t, scrape(t, ts), `pland_plans_total{quality="full"}`); got != 1 {
		t.Fatalf("full plans = %g, want 1", got)
	}
}

// TestBrownoutCheapSubstitutes: at the cheap rung a rich request is
// served with the NORM/time-driven configuration and tagged degraded —
// but a request that asked for the cheap configuration anyway keeps
// full quality, and a plan cached at full quality before the brownout
// still serves as full.
func TestBrownoutCheapSubstitutes(t *testing.T) {
	srv := New(Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Cache one workload at full quality before pressure hits.
	warm := workloadBody(t, 41)
	if resp, raw := postPlan(t, ts, "metric=ADAPT-L", warm); resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-brownout plan: %d (%s)", resp.StatusCode, raw)
	}

	forceBrownout(srv, brownoutCheap)

	// A rich cold request is substituted and tagged.
	resp, raw := postPlan(t, ts, "metric=ADAPT-L&verify=1", workloadBody(t, 42))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (%s)", resp.StatusCode, raw)
	}
	if q := resp.Header.Get("X-Plan-Quality"); q != "degraded" {
		t.Fatalf("X-Plan-Quality = %q, want degraded", q)
	}
	var pr planResp
	mustUnmarshal(t, raw, &pr)
	if pr.Metric != slicing.NORM().Name() || pr.Dispatcher != "time-driven" || pr.Quality != "degraded" {
		t.Fatalf("served %s/%s/%s, want NORM/time-driven/degraded", pr.Metric, pr.Dispatcher, pr.Quality)
	}

	// A request already at the cheap configuration is not a downgrade.
	resp, raw = postPlan(t, ts, "metric="+slicing.NORM().Name()+"&dispatcher=time-driven", workloadBody(t, 43))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (%s)", resp.StatusCode, raw)
	}
	if q := resp.Header.Get("X-Plan-Quality"); q != "full" {
		t.Fatalf("cheap-config request X-Plan-Quality = %q, want full", q)
	}

	// The pre-brownout cached plan short-circuits the ladder.
	resp, raw = postPlan(t, ts, "metric=ADAPT-L", warm)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (%s)", resp.StatusCode, raw)
	}
	if q := resp.Header.Get("X-Plan-Quality"); q != "full" {
		t.Fatalf("cached plan X-Plan-Quality = %q, want full", q)
	}

	text := scrape(t, ts)
	if got := metricValue(t, text, `pland_plans_total{quality="degraded"}`); got != 1 {
		t.Fatalf("degraded plans = %g, want 1", got)
	}
	if got := metricValue(t, text, "pland_brownout_level"); got != 1 {
		t.Fatalf("brownout level = %g, want 1", got)
	}
}

// TestBrownoutCacheOnly: at the deepest rung only resident plans are
// served — full-quality ones as full, degraded ones from an earlier
// brownout as degraded — and misses get 503 with a Retry-After hint.
func TestBrownoutCacheOnly(t *testing.T) {
	srv := New(Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	warm := workloadBody(t, 51)
	if resp, _ := postPlan(t, ts, "metric=ADAPT-L", warm); resp.StatusCode != http.StatusOK {
		t.Fatal("pre-brownout plan failed")
	}
	// Cache a degraded plan for another workload while at the cheap rung.
	forceBrownout(srv, brownoutCheap)
	cheapened := workloadBody(t, 52)
	if resp, _ := postPlan(t, ts, "metric=ADAPT-L", cheapened); resp.StatusCode != http.StatusOK {
		t.Fatal("cheap-rung plan failed")
	}

	forceBrownout(srv, brownoutCacheOnly)

	// Resident full-quality plan: served full.
	resp, _ := postPlan(t, ts, "metric=ADAPT-L", warm)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Plan-Quality") != "full" {
		t.Fatalf("cached full plan: %d %q, want 200 full", resp.StatusCode, resp.Header.Get("X-Plan-Quality"))
	}
	// Resident degraded plan (cheap key) beats a 503.
	resp, _ = postPlan(t, ts, "metric=ADAPT-L", cheapened)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Plan-Quality") != "degraded" {
		t.Fatalf("cached degraded plan: %d %q, want 200 degraded", resp.StatusCode, resp.Header.Get("X-Plan-Quality"))
	}
	// Miss: refused with a hint, never built.
	resp, raw := postPlan(t, ts, "metric=ADAPT-L", workloadBody(t, 53))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("cache-only miss: %d (%s), want 503", resp.StatusCode, raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("cache-only 503 carries no Retry-After")
	}

	text := scrape(t, ts)
	if got := metricValue(t, text, `pland_cache_only_total{outcome="hit"}`); got != 2 {
		t.Fatalf("cache-only hits = %g, want 2", got)
	}
	if got := metricValue(t, text, `pland_cache_only_total{outcome="miss"}`); got != 1 {
		t.Fatalf("cache-only misses = %g, want 1", got)
	}
	if got := metricValue(t, text, "pland_brownout_level"); got != 2 {
		t.Fatalf("brownout level = %g, want 2", got)
	}
}

// TestBrownoutRecovers closes clean windows and watches the ladder walk
// back to full service through the clean-streak hysteresis.
func TestBrownoutRecovers(t *testing.T) {
	srv := New(Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	clock := time.Now().Add(time.Hour)
	srv.adm.now = func() time.Time { return clock }
	srv.adm.observe(srv.adm.opt.CacheOnlyAt)
	clock = clock.Add(srv.adm.opt.Window)
	if srv.adm.currentLevel() != brownoutCacheOnly {
		t.Fatal("setup: not at cache-only")
	}
	// 2 × promoteAfter clean windows: back to full.
	for i := 0; i < 2*promoteAfter; i++ {
		clock = clock.Add(srv.adm.opt.Window)
	}
	if l := srv.adm.currentLevel(); l != brownoutOff {
		t.Fatalf("level = %v after clean streaks, want off", l)
	}
	resp, _ := postPlan(t, ts, "metric=ADAPT-L", workloadBody(t, 61))
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Plan-Quality") != "full" {
		t.Fatalf("post-recovery plan: %d %q, want 200 full", resp.StatusCode, resp.Header.Get("X-Plan-Quality"))
	}
}
