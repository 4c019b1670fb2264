package server

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/taskgraph"
)

// Adaptive admission and the brownout ladder.
//
// The static MaxQueue bound sheds work only after the queue is already
// deep — a cliff: everything is admitted at full cost right up to the
// wall, then everything beyond it is refused. The controller here
// watches the signal that actually hurts clients, queue *delay* (the
// sojourn time a request spends waiting for a planning slot), and acts
// on it CoDel-style: a target sojourn, measured over short windows,
// with the worst observation per window driving every overload
// response the server has:
//
//   - an AIMD admit fraction: while the worst sojourn of a window
//     exceeds the target the fraction of offered work admitted shrinks
//     multiplicatively; while it stays under, the fraction recovers
//     additively. Measuring a *fraction* of offered load (rather than
//     an absolute rate) keeps the controller calibration-free across
//     hardware and workload sizes.
//   - the criticality rung, ahead of the coin: an over-target window
//     engages Optional-only shedding (hysteretically, released at half
//     target), so the optional tier absorbs the first cut before any
//     mandatory request is refused.
//   - a brownout ladder for the work that is admitted: as the worst
//     sojourn crosses configurable rungs, cold builds step down to
//     progressively cheaper pipeline configurations — full plan →
//     cheap NORM-metric plan (tagged degraded) → cache/read-through
//     only with 503 on miss. Cached plans always serve at the quality
//     they were built at; the ladder only governs what new work costs.
//     Demotion is immediate at a window close; promotion needs
//     promoteAfter consecutive windows below the rung's release
//     threshold (half the rung), the same clean-streak hysteresis the
//     degrade mode controller uses, so a load hovering at a rung does
//     not flap the ladder.
//
// Everything is lazy — windows close on whatever request observes the
// clock past the boundary — so the controller needs no goroutine and
// costs one mutex on the request path.

// brownoutLevel is a rung of the brownout ladder.
type brownoutLevel int

const (
	// brownoutOff: cold builds run the client's full configuration.
	brownoutOff brownoutLevel = iota
	// brownoutCheap: cold builds are replaced by the cheap NORM-metric
	// configuration and tagged degraded; resident full-quality plans
	// still serve as such.
	brownoutCheap
	// brownoutCacheOnly: no cold builds at all — cache (and, in fleet
	// mode, peer read-through) or 503.
	brownoutCacheOnly
)

// String implements fmt.Stringer.
func (l brownoutLevel) String() string {
	switch l {
	case brownoutOff:
		return "off"
	case brownoutCheap:
		return "cheap"
	case brownoutCacheOnly:
		return "cache-only"
	}
	return "?"
}

// The control law's fixed steps: the admit fraction's multiplicative
// cut per overloaded window, its additive recovery per clean window,
// and its floor (a trickle always passes, so the controller keeps
// measuring); and how many consecutive windows below a rung's release
// threshold (half the rung) re-promote one brownout level.
const (
	admitDecrease = 0.7
	admitIncrease = 0.05
	admitMinFrac  = 0.05
	promoteAfter  = 3
)

// admitOptions are the controller tunables; zero fields take the
// documented defaults (withDefaults).
type admitOptions struct {
	// Target is the queue-delay (sojourn) target; windows whose worst
	// sojourn exceeds it count as overloaded. 0 (or negative) means
	// 25ms.
	Target time.Duration
	// Window is the control window length. 0 means 250ms.
	Window time.Duration
	// CheapAt and CacheOnlyAt are the brownout rungs: worst window
	// sojourn at or above them demotes cold builds to the cheap
	// configuration / to cache-only serving. 0 means 2× and 8× Target;
	// negative disables the rung.
	CheapAt     time.Duration
	CacheOnlyAt time.Duration
	// Seed seeds the admit coin. 0 means 1.
	Seed int64
}

func (o admitOptions) withDefaults() admitOptions {
	if o.Target <= 0 {
		o.Target = 25 * time.Millisecond
	}
	if o.Window <= 0 {
		o.Window = 250 * time.Millisecond
	}
	if o.CheapAt == 0 {
		o.CheapAt = 2 * o.Target
	}
	if o.CacheOnlyAt == 0 {
		o.CacheOnlyAt = 8 * o.Target
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// verdict is the controller's answer for one offered request: a seat
// in the bounded queue (admitPass), or a 429 from the criticality rung
// (admitShedRung, Optional requests only) or the AIMD coin
// (admitShedCoin).
type verdict int

const (
	admitPass verdict = iota
	admitShedRung
	admitShedCoin
)

// admitController is the queue-delay admission controller plus the
// brownout ladder state. Safe for concurrent use.
type admitController struct {
	opt admitOptions
	now func() time.Time

	mu sync.Mutex
	// frac is the current admitted fraction of offered load, in
	// [admitMinFrac, 1].
	frac float64
	// worst is the worst sojourn observed in the current window;
	// lastWorst is the previous window's, exported as the delay gauge.
	worst, lastWorst time.Duration
	windowEnd        time.Time
	// level is the current brownout rung; clean counts consecutive
	// closed windows that argued for a promotion.
	level brownoutLevel
	clean int
	// shedOptional is the criticality rung: engage on an over-target
	// window, release on a window at or below half target.
	shedOptional bool
	rnd          *rand.Rand

	// transitions counts ladder moves (both directions), for the
	// flappiness metric.
	transitions int64
	// shedEngaged counts criticality-rung engagements. It is written
	// under mu but atomic so /metrics can read it without the lock.
	shedEngaged atomic.Int64
}

// newAdmitController builds a controller on the real clock.
func newAdmitController(opt admitOptions) *admitController {
	opt = opt.withDefaults()
	return &admitController{
		opt:  opt,
		now:  time.Now,
		frac: 1,
		rnd:  rand.New(rand.NewSource(opt.Seed)),
	}
}

// observe feeds one queue-sojourn measurement: the time a request
// spent waiting for a planning slot, whether or not it got one (a
// request that gave up after 80ms in queue is exactly as loud a signal
// as one that got a slot after 80ms).
func (a *admitController) observe(sojourn time.Duration) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.roll(a.now())
	if sojourn > a.worst {
		a.worst = sojourn
	}
}

// admit decides one offered request of criticality crit. While the
// criticality rung is engaged an Optional request is refused outright,
// without drawing the coin; anything else flips the AIMD coin.
func (a *admitController) admit(crit taskgraph.Criticality) verdict {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.roll(a.now())
	switch {
	case a.shedOptional && crit == taskgraph.Optional:
		return admitShedRung
	case a.frac >= 1 || a.rnd.Float64() < a.frac:
		return admitPass
	}
	return admitShedCoin
}

// sheddingOptional reports whether the criticality rung is engaged.
func (a *admitController) sheddingOptional() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.roll(a.now())
	return a.shedOptional
}

// currentLevel returns the brownout rung governing cold builds.
func (a *admitController) currentLevel() brownoutLevel {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.roll(a.now())
	return a.level
}

// snapshot returns (admit fraction, last closed window's worst sojourn,
// level, ladder transitions) for /metrics.
func (a *admitController) snapshot() (frac float64, delay time.Duration, level brownoutLevel, transitions int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.roll(a.now())
	return a.frac, a.lastWorst, a.level, a.transitions
}

// roll closes every window boundary the clock has passed. Called with
// the mutex held. Closing applies the AIMD step, advances the
// criticality rung's hysteresis, and moves the brownout ladder; an
// idle stretch (no requests for many windows) closes them all with a
// zero worst, so pressure state decays to calm exactly as if clean
// traffic had flowed.
func (a *admitController) roll(now time.Time) {
	if a.windowEnd.IsZero() {
		a.windowEnd = now.Add(a.opt.Window)
		return
	}
	for !now.Before(a.windowEnd) {
		a.closeWindow()
		a.windowEnd = a.windowEnd.Add(a.opt.Window)
		// After a long idle gap, don't replay thousands of empty
		// windows one by one.
		if gap := now.Sub(a.windowEnd); gap > 0 {
			if skip := gap / a.opt.Window; skip > time.Duration(2*promoteAfter) {
				for i := 0; i < 2*promoteAfter; i++ {
					a.closeWindow()
				}
				a.windowEnd = now.Add(a.opt.Window)
				return
			}
		}
	}
}

// closeWindow applies the control laws to the window that just ended.
func (a *admitController) closeWindow() {
	w := a.worst
	a.worst = 0
	a.lastWorst = w

	// AIMD on the admit fraction.
	if w > a.opt.Target {
		a.frac = math.Max(admitMinFrac, a.frac*admitDecrease)
	} else {
		a.frac = math.Min(1, a.frac+admitIncrease)
	}

	// Criticality rung, with a half-target hysteresis band.
	if w > a.opt.Target {
		if !a.shedOptional {
			a.shedEngaged.Add(1)
		}
		a.shedOptional = true
	} else if w <= a.opt.Target/2 {
		a.shedOptional = false
	}

	// Brownout ladder: demote immediately, promote on a clean streak.
	want := brownoutOff
	switch {
	case a.opt.CacheOnlyAt > 0 && w >= a.opt.CacheOnlyAt:
		want = brownoutCacheOnly
	case a.opt.CheapAt > 0 && w >= a.opt.CheapAt:
		want = brownoutCheap
	}
	switch {
	case want > a.level:
		a.level = want
		a.clean = 0
		a.transitions++
	case a.level > brownoutOff && a.releasesLevel(w):
		a.clean++
		if a.clean >= promoteAfter {
			a.level--
			a.clean = 0
			a.transitions++
		}
	default:
		a.clean = 0
	}
}

// releasesLevel reports whether the closed window's worst sojourn is
// below the current rung's release threshold (half the rung's engage
// threshold), i.e. argues for a promotion.
func (a *admitController) releasesLevel(w time.Duration) bool {
	switch a.level {
	case brownoutCacheOnly:
		return a.opt.CacheOnlyAt > 0 && w < a.opt.CacheOnlyAt/2
	case brownoutCheap:
		return a.opt.CheapAt > 0 && w < a.opt.CheapAt/2
	}
	return false
}
