package main

import (
	"testing"
	"time"
)

func TestBlockLatencyUsesCalmBlocks(t *testing.T) {
	// Blocks 1 and 3 lost CPU to the hypervisor and stalled; blocks 0
	// and 2 ran 1..100 ms and 101..200 ms.
	var outs []outcome
	for b := 0; b < 4; b++ {
		for i := 1; i <= 100; i++ {
			lat := time.Duration(100*(b/2)+i) * time.Millisecond
			if b%2 == 1 {
				lat = time.Second
			}
			outs = append(outs, outcome{block: b, done: lat})
		}
	}
	steal := []time.Duration{0, 50 * time.Millisecond, time.Millisecond, 80 * time.Millisecond}
	p50, tailMS := blockLatency(outs, steal)
	// Per-block p50s are 50 and 150 ms, p90s 90 and 190 ms; the
	// nearest-rank median of two is the lower.
	if p50 != 50 || tailMS != 90 {
		t.Errorf("p50 %v, tail %v; want 50 and 90 from the calm blocks", p50, tailMS)
	}
}
