package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// peer is one running pland process.
type peer struct {
	name string
	url  string
	cmd  *exec.Cmd
	log  *bytes.Buffer
	done chan struct{} // closed once the process has been waited for
}

// fleet is the set of pland processes under test.
type fleet []*peer

// freeAddrs asks the kernel for n distinct unused loopback addresses.
// Every listener stays open until all n are chosen, so no port is handed
// out twice.
func freeAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer ln.Close()
		addrs[i] = ln.Addr().String()
	}
	return addrs, nil
}

// peersSpec renders the -peers flag for names at urls.
func peersSpec(names, urls []string) string {
	parts := make([]string, len(names))
	for i := range names {
		parts[i] = names[i] + "=" + urls[i]
	}
	return strings.Join(parts, ",")
}

// launch starts one pland per name (a fleet when there are several),
// and returns once every peer answers /healthz.
func launch(bin string, names []string) (fleet, error) {
	addrs, err := freeAddrs(len(names))
	if err != nil {
		return nil, err
	}
	urls := make([]string, len(names))
	for i, a := range addrs {
		urls[i] = "http://" + a
	}
	var fl fleet
	for i, name := range names {
		args := []string{"-addr", addrs[i]}
		if len(names) > 1 {
			args = append(args, "-peers", peersSpec(names, urls), "-self", name)
		}
		p := &peer{name: name, url: urls[i], log: &bytes.Buffer{}, done: make(chan struct{})}
		p.cmd = exec.Command(filepath.Join(bin, "pland"), args...)
		p.cmd.Stdout, p.cmd.Stderr = p.log, p.log
		p.cmd.SysProcAttr = diesWithParent()
		if err := p.cmd.Start(); err != nil {
			fl.stop()
			return nil, fmt.Errorf("start pland: %w", err)
		}
		go func() { _ = p.cmd.Wait(); close(p.done) }()
		fl = append(fl, p)
	}
	c := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(20 * time.Second)
	for _, p := range fl {
		for {
			res, err := c.Get(p.url + "/healthz")
			if err == nil {
				_, _ = io.Copy(io.Discard, res.Body)
				res.Body.Close()
				if res.StatusCode == http.StatusOK {
					break
				}
			}
			select {
			case <-p.done:
				fl.stop()
				return nil, fmt.Errorf("pland %s exited during start-up: %s", p.name, p.log.String())
			default:
			}
			if time.Now().After(deadline) {
				fl.stop()
				return nil, fmt.Errorf("pland %s not healthy after 20s", p.name)
			}
			time.Sleep(500 * time.Microsecond)
		}
	}
	return fl, nil
}

// diesWithParent makes a child process receive SIGTERM when the
// benchmark dies, so a killed run leaves no pland or slicebench behind.
func diesWithParent() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
}

// stop drains every peer with SIGTERM and waits for it to exit, killing
// one that does not exit within ten seconds.
func (fl fleet) stop() {
	for _, p := range fl {
		_ = p.cmd.Process.Signal(syscall.SIGTERM)
	}
	for _, p := range fl {
		select {
		case <-p.done:
		case <-time.After(10 * time.Second):
			_ = p.cmd.Process.Kill()
			<-p.done
		}
	}
}

// cpuTicks returns user plus system CPU time of a live process, in
// clock ticks, from /proc/<pid>/stat.
func cpuTicks(pid int) (int64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields resume after its ')'.
	rest := raw[bytes.LastIndexByte(raw, ')')+2:]
	f := strings.Fields(string(rest))
	// utime and stime are fields 14 and 15 of the full line, 12 and 13
	// after pid and comm.
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	return ut + st, nil
}

// clockTick is the kernel's USER_HZ, 100 on every Linux architecture Go
// supports.
const clockTick = 10 * time.Millisecond

// cpu sums the fleet's CPU time.
func (fl fleet) cpu() (time.Duration, error) {
	var ticks int64
	for _, p := range fl {
		t, err := cpuTicks(p.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		ticks += t
	}
	return time.Duration(ticks) * clockTick, nil
}

// peakRSSMB sums the fleet's VmHWM, in MiB.
func (fl fleet) peakRSSMB() (float64, error) {
	var kb int64
	for _, p := range fl {
		f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				n, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
				if err == nil {
					kb += n
				}
			}
		}
		f.Close()
	}
	return float64(kb) / 1024, nil
}

// scrape fetches one peer's /metrics as a map from sample (name plus
// label set, as rendered) to value.
func scrape(ctx context.Context, c *http.Client, url string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	res, err := c.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", url, err)
	}
	defer res.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(res.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("scrape %s: bad sample %q", url, line)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// scrapeAll scrapes every peer, in fleet order.
func (fl fleet) scrapeAll(ctx context.Context, c *http.Client) ([]map[string]float64, error) {
	out := make([]map[string]float64, len(fl))
	for i, p := range fl {
		m, err := scrape(ctx, c, p.url)
		if err != nil {
			return nil, err
		}
		out[i] = m
	}
	return out, nil
}

// sumDelta sums sample over peers between two scrapes.
func sumDelta(before, after []map[string]float64, sample string) float64 {
	d := 0.0
	for i := range after {
		d += after[i][sample] - before[i][sample]
	}
	return d
}
