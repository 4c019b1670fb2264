package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"regexp"
	"testing"

	"repro/internal/gen"
	"repro/internal/graphio"
	"repro/internal/pipeline"
)

// fuzzWorkloads seeds the body fuzzers with small generated workloads,
// compacted so they also survive embedding in a batch verbatim. Small
// inputs keep the fuzzer's mutation and minimization fast.
func fuzzWorkloads(f *testing.F) [][]byte {
	var out [][]byte
	for seed := int64(7); seed < 10; seed++ {
		cfg := gen.Default(2)
		cfg.Seed = seed
		cfg.MinTasks, cfg.MaxTasks = 4, 6
		cfg.MinDepth, cfg.MaxDepth = 2, 3
		w := gen.MustGenerate(cfg)
		var buf, compact bytes.Buffer
		if err := graphio.WriteWorkload(&buf, w.Graph, w.Platform); err != nil {
			f.Fatal(err)
		}
		if err := json.Compact(&compact, buf.Bytes()); err != nil {
			f.Fatal(err)
		}
		out = append(out, compact.Bytes())
	}
	return out
}

// maxFuzzBody skips inputs whose planning would dominate the fuzzer's
// time budget; the parse paths are exercised well below it.
const maxFuzzBody = 64 << 10

// serve runs one request through h in process.
func serve(h http.Handler, method, target string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, target, bytes.NewReader(body)))
	return rec
}

// planningMS matches the one response field that may legitimately
// differ between two answers of the same plan.
var planningMS = regexp.MustCompile(`"planningMS": [^,\n]*`)

// postTwice posts body to path on a fresh server twice and requires the
// same status and, apart from planningMS, the same answer: the second
// post is served off the workload memo whenever the first parsed, so
// this is the differential check of a memo hit against a parse.
func postTwice(t *testing.T, path string, body []byte) {
	srv := New(Options{CacheCapacity: 8})
	h := srv.Handler()
	first := serve(h, http.MethodPost, path, body)
	second := serve(h, http.MethodPost, path, body)
	if first.Code != second.Code {
		t.Fatalf("status %d then %d", first.Code, second.Code)
	}
	// Workload faults are 422; nothing a body says may cost a 5xx.
	if first.Code != http.StatusOK && first.Code != http.StatusUnprocessableEntity {
		t.Fatalf("status %d: %s", first.Code, first.Body)
	}
	a := planningMS.ReplaceAll(first.Body.Bytes(), nil)
	b := planningMS.ReplaceAll(second.Body.Bytes(), nil)
	if !bytes.Equal(a, b) {
		t.Fatalf("answers differ:\n%s\n%s", first.Body, second.Body)
	}
	// Only parsed bodies are memoised, and a memoised /plan body hits.
	n := int64(srv.memo.len())
	if n > srv.memoMisses.Load() || (path == "/plan" && srv.memoHits.Load() != n) {
		t.Fatalf("memo holds %d entries after %d hits and %d misses",
			n, srv.memoHits.Load(), srv.memoMisses.Load())
	}
}

// FuzzPlanBody posts arbitrary bytes to /plan twice; see postTwice.
func FuzzPlanBody(f *testing.F) {
	for _, w := range fuzzWorkloads(f) {
		f.Add(w)
	}
	f.Add([]byte("not json"))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"graph":{"tasks":[]}}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > maxFuzzBody {
			return
		}
		postTwice(t, "/plan", body)
	})
}

// FuzzPlanBatchBody posts arbitrary bytes to /plan/batch twice; see
// postTwice.
func FuzzPlanBatchBody(f *testing.F) {
	ws := fuzzWorkloads(f)
	batch := func(items ...BatchItem) []byte {
		raw, err := json.Marshal(BatchRequest{Items: items})
		if err != nil {
			f.Fatal(err)
		}
		return raw
	}
	f.Add(batch(BatchItem{Workload: ws[0]}))
	f.Add(batch(BatchItem{Workload: ws[1]}, BatchItem{Criticality: "optional", Workload: ws[1]}))
	f.Add(batch(BatchItem{Workload: ws[2]}, BatchItem{Workload: []byte(`{"not":"a workload"}`)}))
	f.Add(batch(BatchItem{Criticality: "sometimes", Workload: ws[0]}))
	f.Add([]byte(`{"items":[]}`))
	f.Add([]byte("not json"))
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > maxFuzzBody {
			return
		}
		postTwice(t, "/plan/batch", body)
	})
}

// FuzzCacheFillBody hammers the two peer-facing warm-fill decoders:
// the POST /cache/fill body and the /cache/digest answer. The
// contract: neither panics; /cache/fill answers 204 or 422, never
// anything else; a plan it installs is advertised by the digest, served
// back by GET /cache/fill, and accepted again by another peer; and
// every key a digest decodes to survives the key-token round trip.
func FuzzCacheFillBody(f *testing.F) {
	srv := New(Options{})
	h := srv.Handler()
	for _, w := range fuzzWorkloads(f) {
		if rec := serve(h, http.MethodPost, "/plan", w); rec.Code != http.StatusOK {
			f.Fatalf("seed plan: %d %s", rec.Code, rec.Body)
		}
	}
	for _, k := range srv.cache.Keys() {
		rec := serve(h, http.MethodGet, "/cache/fill?key="+pipeline.EncodeKeyParam(k), nil)
		if rec.Code != http.StatusOK {
			f.Fatalf("seed fill: %d %s", rec.Code, rec.Body)
		}
		f.Add(rec.Body.Bytes())
	}
	f.Add(serve(h, http.MethodGet, "/cache/digest", nil).Body.Bytes())
	f.Add([]byte(`{"peer":"p0","keys":["not a token"]}`))
	f.Add([]byte("not json"))
	f.Fuzz(func(t *testing.T, body []byte) {
		if keys, err := decodeDigest(body); err == nil {
			for _, k := range keys {
				if k2, err := pipeline.DecodeKeyParam(pipeline.EncodeKeyParam(k)); err != nil || k2 != k {
					t.Fatalf("digest key %+v does not round-trip: %+v, %v", k, k2, err)
				}
			}
		}

		peer := New(Options{})
		ph := peer.Handler()
		rec := serve(ph, http.MethodPost, "/cache/fill", body)
		switch rec.Code {
		case http.StatusUnprocessableEntity:
			if peer.cache.Len() != 0 {
				t.Fatal("a rejected fill installed a plan")
			}
			return
		case http.StatusNoContent:
		default:
			t.Fatalf("POST /cache/fill: status %d: %s", rec.Code, rec.Body)
		}
		dig := serve(ph, http.MethodGet, "/cache/digest", nil)
		keys, err := decodeDigest(dig.Body.Bytes())
		if err != nil || len(keys) != 1 {
			t.Fatalf("digest after an accepted fill: %v keys, %v: %s", len(keys), err, dig.Body)
		}
		fill := serve(ph, http.MethodGet, "/cache/fill?key="+pipeline.EncodeKeyParam(keys[0]), nil)
		if fill.Code != http.StatusOK {
			t.Fatalf("GET /cache/fill of the advertised key: %d %s", fill.Code, fill.Body)
		}
		if again := serve(New(Options{}).Handler(), http.MethodPost, "/cache/fill", fill.Body.Bytes()); again.Code != http.StatusNoContent {
			t.Fatalf("a served plan was refused by another peer: %d %s", again.Code, again.Body)
		}
	})
}
