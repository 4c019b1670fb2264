package pipeline

import (
	"bytes"
	"encoding/base64"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/sched"
)

// fuzzPlans seeds the decoder fuzzers with real plans of small
// generated workloads, one per dispatcher, so the preemptive branch of
// the schedule check is reachable too. Small inputs keep the fuzzer's
// mutation and minimization fast.
func fuzzPlans(f *testing.F) []*Plan {
	var plans []*Plan
	for i, d := range []Dispatcher{TimeDriven(), Planner(), Insertion(), Preemptive()} {
		cfg := gen.Default(2)
		cfg.Seed = int64(7 + i)
		cfg.MinTasks, cfg.MaxTasks = 4, 6
		cfg.MinDepth, cfg.MaxDepth = 2, 3
		w := gen.MustGenerate(cfg)
		p, err := (&Builder{Dispatcher: d}).Build(Spec{Graph: w.Graph, Platform: w.Platform})
		if err != nil {
			f.Fatalf("%s: %v", d.Name, err)
		}
		plans = append(plans, p)
	}
	return plans
}

// FuzzDecodeKeyParam hammers the GET /cache/fill?key= token decoder.
// The contract: it never panics, and a Key it accepts re-encodes to a
// token that decodes to the same Key.
func FuzzDecodeKeyParam(f *testing.F) {
	for _, p := range fuzzPlans(f) {
		f.Add(EncodeKeyParam(p.Key))
	}
	f.Add("")
	f.Add("not base64!")
	f.Add(base64.RawURLEncoding.EncodeToString([]byte(`{}`)))
	f.Add(base64.RawURLEncoding.EncodeToString([]byte(`{"workload":"zz","estimates":"00"}`)))
	f.Fuzz(func(t *testing.T, s string) {
		k, err := DecodeKeyParam(s)
		if err != nil {
			return
		}
		k2, err := DecodeKeyParam(EncodeKeyParam(k))
		if err != nil {
			t.Fatalf("accepted key does not re-decode: %v", err)
		}
		if k2 != k {
			t.Fatalf("key round-trip changed the key:\n  %+v\n  %+v", k, k2)
		}
	})
}

// FuzzReadSnapshot hammers the snapshot reader, and through it
// DecodePlan, which also guards POST /cache/fill and warm-fill pulls.
// The contract: it never panics, every plan it accepts from a
// non-preemptive dispatcher passes sched.Verify, and every accepted
// plan's verdict is the one Schedule.Account derives from its
// placements and deadlines.
func FuzzReadSnapshot(f *testing.F) {
	plans := fuzzPlans(f)
	var all bytes.Buffer
	if _, err := WriteSnapshot(&all, plans); err != nil {
		f.Fatal(err)
	}
	f.Add(all.Bytes())
	for _, p := range plans {
		var one bytes.Buffer
		if _, err := WriteSnapshot(&one, []*Plan{p}); err != nil {
			f.Fatal(err)
		}
		f.Add(one.Bytes())
	}
	f.Add([]byte(`{"snapshot":"` + SnapshotHeader + `"}` + "\n{}\n"))
	f.Add([]byte("garbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, p := range got {
			s := p.Schedule
			if p.Key.Dispatcher != Preemptive().Name {
				if err := sched.Verify(p.Graph, p.Platform, p.Assignment, s); err != nil {
					t.Fatalf("accepted plan fails sched.Verify: %v", err)
				}
			}
			want := sched.Schedule{Placements: s.Placements}
			want.Account(p.Assignment.AbsDeadline)
			if want.Feasible != s.Feasible || !slices.Equal(want.Missed, s.Missed) ||
				want.MaxLateness != s.MaxLateness || want.Makespan != s.Makespan ||
				p.Verdict.Feasible != want.Feasible || p.Verdict.MaxLateness != want.MaxLateness {
				t.Fatalf("accepted plan's verdict (feasible %v, missed %v, lateness %d, makespan %d) "+
					"is not its placements' (%v, %v, %d, %d)",
					p.Verdict.Feasible, s.Missed, p.Verdict.MaxLateness, s.Makespan,
					want.Feasible, want.Missed, want.MaxLateness, want.Makespan)
			}
		}
	})
}
