package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// outcome is one request as the generator saw it. Times are offsets
// from the window's start: due is when the schedule said to send, sent
// when the dispatcher released it (sent − due is generator lag), done
// when the whole answer had been read. block numbers the rate block of
// its phase the request was due in.
type outcome struct {
	due, sent, done time.Duration
	block           int
	status          int
	body            []byte
	err             error
}

// latency is the request's time from when it was due to its full
// answer, so a stall also charges the requests queued behind it.
func (o outcome) latency() time.Duration { return o.done - o.due }

// newClient returns an HTTP client with at most conns connections per
// host and no response compression.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// post sends one workload body to url's /plan and reads the answer.
func post(ctx context.Context, c *http.Client, url string, body []byte, query string) (int, []byte, error) {
	u := url + "/plan"
	if query != "" {
		u += "?" + query
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	res, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer res.Body.Close()
	b, err := io.ReadAll(res.Body)
	if err != nil {
		return res.StatusCode, nil, fmt.Errorf("read answer: %w", err)
	}
	return res.StatusCode, b, nil
}

// blockLen is one rate block. The window alternates nominal and peak
// blocks, so a slow spell of the machine lands on both rates, and each
// latency figure is a median over its phase's blocks.
const blockLen = time.Second

// perBlock is how many requests one block at rate sends.
func perBlock(rate float64) int { return int(rate * blockLen.Seconds()) }

// openLoop sends both phases' requests to url on a fixed schedule:
// blocks alternate nominal and peak, and within a block requests are
// due every 1/rate seconds whatever the answers do. A dispatcher
// releases each request at its due time to workers senders, each
// holding one connection; a request finding every sender busy waits,
// and that wait counts in its latency.
//
// It also returns how much CPU the hypervisor stole from the machine
// during each block, indexed like the outcomes' block numbers.
func openLoop(ctx context.Context, c *http.Client, url string, phases [2][]request, inputs []input,
	rates [2]float64, blocks, workers int) ([2][]outcome, [2][]time.Duration) {

	type shot struct{ ph, i, block int }
	var outs [2][]outcome
	var shots []shot
	for ph := range phases {
		outs[ph] = make([]outcome, len(phases[ph]))
	}
	next := [2]int{}
	for b := 0; b < blocks; b++ {
		ph := b % 2
		for k := 0; k < perBlock(rates[ph]); k++ {
			o := &outs[ph][next[ph]]
			o.block = b / 2
			o.due = time.Duration(b)*blockLen + time.Duration(float64(k)/rates[ph]*float64(time.Second))
			shots = append(shots, shot{ph, next[ph], b})
			next[ph]++
		}
	}
	stealAt := make([]time.Duration, blocks+1) // at each block's start, and at the end
	queue := make(chan shot, len(shots))       // one slot per send: the dispatcher never blocks
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for sh := range queue {
				r := phases[sh.ph][sh.i]
				o := &outs[sh.ph][sh.i]
				o.status, o.body, o.err = post(ctx, c, url, inputs[r.input].body, r.query())
				o.done = time.Since(start)
			}
		}()
	}
	block := -1
	for _, sh := range shots {
		o := &outs[sh.ph][sh.i]
		if d := o.due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		o.sent = time.Since(start)
		queue <- sh
		if sh.block != block {
			block = sh.block
			stealAt[block] = stolen()
		}
	}
	close(queue)
	wg.Wait()
	stealAt[blocks] = stolen()
	var steal [2][]time.Duration
	for b := 0; b < blocks; b++ {
		steal[b%2] = append(steal[b%2], stealAt[b+1]-stealAt[b])
	}
	return outs, steal
}

// stolen returns the CPU time the hypervisor has taken from this
// machine since boot: the steal column of /proc/stat. It is 0 where the
// kernel reports none.
func stolen() time.Duration {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line) // "cpu" user nice system idle iowait irq softirq steal ...
	if len(f) < 9 {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * clockTick
}
