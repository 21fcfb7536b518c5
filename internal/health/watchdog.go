package health

import (
	"sync/atomic"
	"time"
)

// Watchdog timing defaults. The default deadline is deliberately generous:
// a loaded CI host may deschedule an engine for seconds, and a false
// stall report (which writes a bundle and fails the stall check) is far
// worse than a slow detection. Tests override via Options.StallDeadline.
const (
	DefaultStallDeadline = 2 * time.Minute
	MinStallDeadline     = 10 * time.Millisecond
	MinPollInterval      = 2 * time.Millisecond
	MaxPollInterval      = 5 * time.Second
)

// resolveDeadline maps an Options.StallDeadline value to the effective
// watchdog deadline: nonpositive means the default, positives are clamped
// up to MinStallDeadline (property-tested in watchdog_test.go).
func resolveDeadline(d time.Duration) time.Duration {
	if d <= 0 {
		return DefaultStallDeadline
	}
	if d < MinStallDeadline {
		return MinStallDeadline
	}
	return d
}

// resolvePoll maps (Options.PollInterval, effective deadline) to the
// watchdog's wake cadence: explicit positive values win, otherwise
// deadline/8 clamped to [MinPollInterval, MaxPollInterval]. Always at
// most the deadline, so a stall is detected within one deadline plus one
// poll.
func resolvePoll(p, deadline time.Duration) time.Duration {
	if p <= 0 {
		p = deadline / 8
	}
	if p < MinPollInterval {
		p = MinPollInterval
	}
	if p > MaxPollInterval {
		p = MaxPollInterval
	}
	if p > deadline {
		p = deadline
	}
	return p
}

// Heartbeat is a progress pulse owned by one engine loop. The loop brackets
// its run with Enter/Exit and calls Beat once per round — a single atomic
// add, the entire steady-state cost. The watchdog only considers a
// heartbeat stalled while it is active (between Enter and Exit), so idle
// engines never alarm.
type Heartbeat struct {
	name   string
	beats  atomic.Int64
	active atomic.Int64
}

// Enter marks the loop as running (nestable; Deduce inside DMatch workers
// shares one heartbeat).
func (h *Heartbeat) Enter() {
	if h == nil {
		return
	}
	h.active.Add(1)
	h.beats.Add(1)
}

// Beat records one round of progress.
func (h *Heartbeat) Beat() {
	if h == nil {
		return
	}
	h.beats.Add(1)
}

// Exit marks the loop as finished.
func (h *Heartbeat) Exit() {
	if h == nil {
		return
	}
	h.active.Add(-1)
}

// Beats returns the total number of beats.
func (h *Heartbeat) Beats() int64 {
	if h == nil {
		return 0
	}
	return h.beats.Load()
}

func (h *Heartbeat) report() HeartbeatReport {
	return HeartbeatReport{Name: h.name, Beats: h.beats.Load(), Active: h.active.Load() > 0}
}

// wdState is the watchdog's per-heartbeat bookkeeping. It lives on the
// monitor side so Beat stays a bare atomic add with no clock read.
type wdState struct {
	lastBeats int64
	lastMove  time.Time
	stalled   bool
}

// Start launches the watchdog goroutine. It wakes every poll interval,
// and for every active heartbeat whose beat count has not moved within
// the deadline it declares a stall: increments dcer_health_stalls, fails
// the stall_watchdog check, and captures one flight-recorder bundle for
// the episode (re-armed when beats resume). Stop ends it.
func (m *Monitor) Start() {
	if m == nil {
		return
	}
	m.mu.Lock()
	if m.stop != nil {
		m.mu.Unlock()
		return
	}
	m.stop = make(chan struct{})
	m.done = make(chan struct{})
	stop, done := m.stop, m.done
	m.mu.Unlock()

	deadline := resolveDeadline(m.opts.StallDeadline)
	poll := resolvePoll(m.opts.PollInterval, deadline)
	go m.watch(stop, done, deadline, poll)
}

// Stop terminates the watchdog goroutine and detaches the monitor from
// the registry's health provider and the logger's wide tail.
func (m *Monitor) Stop() {
	if m == nil {
		return
	}
	m.mu.Lock()
	stop, done := m.stop, m.done
	m.stop, m.done = nil, nil
	m.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	m.reg.SetHealth(nil)
	if m.tail != nil {
		m.reg.Logger().AttachWideTail(nil)
	}
}

func (m *Monitor) watch(stop <-chan struct{}, done chan<- struct{}, deadline, poll time.Duration) {
	defer close(done)
	ticker := time.NewTicker(poll)
	defer ticker.Stop()
	states := make(map[*Heartbeat]*wdState)
	for {
		select {
		case <-stop:
			return
		case now := <-ticker.C:
			m.pollOnce(states, now, deadline)
		}
	}
}

// pollOnce runs one watchdog scan. Split out (and clock-injected) for
// tests.
func (m *Monitor) pollOnce(states map[*Heartbeat]*wdState, now time.Time, deadline time.Duration) {
	m.mu.Lock()
	hbs := make([]*Heartbeat, 0, len(m.hborder))
	for _, name := range m.hborder {
		hbs = append(hbs, m.hbs[name])
	}
	m.mu.Unlock()

	allClear := true
	for _, h := range hbs {
		st, ok := states[h]
		if !ok {
			st = &wdState{lastBeats: h.beats.Load(), lastMove: now}
			states[h] = st
		}
		beats := h.beats.Load()
		if beats != st.lastBeats {
			st.lastBeats = beats
			st.lastMove = now
			st.stalled = false
		}
		if h.active.Load() <= 0 {
			// Idle loops don't alarm; re-arm so the next Enter starts fresh.
			st.lastMove = now
			st.stalled = false
			continue
		}
		if now.Sub(st.lastMove) < deadline {
			continue
		}
		allClear = false
		if st.stalled {
			continue // one stall + one bundle per episode
		}
		st.stalled = true
		m.stalls.Add(1)
		m.stallC.Inc()
		stuck := now.Sub(st.lastMove)
		m.stallCheck.Fail(1, "heartbeat %q active with no progress for %s (deadline %s)", h.name, stuck.Round(time.Millisecond), deadline)
		if dir, err := m.CaptureBundle("stall:" + h.name); err == nil {
			m.lastBundle.Store(&dir)
		}
	}
	if allClear && m.stallCheck.Status() == StatusFail {
		// Progress resumed everywhere: the watchdog check recovers, the
		// stall counter and last-failure detail keep the history.
		m.stallCheck.Pass(0)
	}
}
