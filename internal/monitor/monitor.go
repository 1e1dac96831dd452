// Package monitor implements the on-demand monitoring infrastructure
// the AllScale runtime prototype extends HPX with (Section 3.2,
// deliverable D5.2): periodic sampling of per-locality scheduler
// load, task counters, transport traffic and data item coverage, kept
// in bounded time-series rings. The load-balancing and resilience
// services consume its snapshots; the paper lists both as services
// enabled by the runtime's control over data distribution.
package monitor

import (
	"maps"
	"sync"
	"time"

	"allscale/internal/core"
	"allscale/internal/dim"
	"allscale/internal/metrics"
)

// Sample is one observation of one locality.
type Sample struct {
	When time.Time
	Rank int
	Load int64 // queued + running tasks
	// Coverage maps each live data item to the element count of the
	// locality's fragment.
	Coverage map[dim.ItemID]int64
	// Metrics is the locality's whole metrics registry at When: every
	// counter, gauge and histogram a layer publishes, under the name the
	// publishing package exports for it. Consumers index it with those
	// names; a new counter needs no edit here.
	Metrics metrics.Snapshot
}

// clone returns a deep copy of s, so callers mutating a returned Sample
// cannot corrupt the history ring.
func (s Sample) clone() Sample {
	s.Coverage = maps.Clone(s.Coverage)
	s.Metrics.Counters = maps.Clone(s.Metrics.Counters)
	s.Metrics.Gauges = maps.Clone(s.Metrics.Gauges)
	s.Metrics.Histograms = maps.Clone(s.Metrics.Histograms)
	return s
}

// Monitor samples a core.System periodically.
type Monitor struct {
	sys      *core.System
	interval time.Duration
	keep     int

	mu      sync.Mutex
	history [][]Sample // per rank, ring of recent samples

	stop chan struct{}
	done chan struct{}
	once sync.Once
}

// Start begins sampling the system every interval, keeping the last
// `keep` samples per locality (default 64).
func Start(sys *core.System, interval time.Duration, keep int) *Monitor {
	if keep <= 0 {
		keep = 64
	}
	m := &Monitor{
		sys:      sys,
		interval: interval,
		keep:     keep,
		history:  make([][]Sample, sys.Size()),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go m.loop()
	return m
}

// Stop ends sampling; it is idempotent and waits for the sampler to
// exit.
func (m *Monitor) Stop() {
	m.once.Do(func() { close(m.stop) })
	<-m.done
}

func (m *Monitor) loop() {
	defer close(m.done)
	ticker := time.NewTicker(m.interval)
	defer ticker.Stop()
	m.SampleNow()
	for {
		select {
		case <-m.stop:
			return
		case <-ticker.C:
			m.SampleNow()
		}
	}
}

// SampleNow takes one sample of every locality immediately.
func (m *Monitor) SampleNow() {
	now := time.Now()
	samples := make([]Sample, m.sys.Size())
	for rank := 0; rank < m.sys.Size(); rank++ {
		mgr := m.sys.Manager(rank)
		s := Sample{
			When:     now,
			Rank:     rank,
			Load:     m.sys.Scheduler(rank).Load(),
			Coverage: make(map[dim.ItemID]int64),
			Metrics:  m.sys.Metrics(rank).Snapshot(),
		}
		for _, id := range mgr.Items() {
			if n, err := mgr.CoverageSize(id); err == nil {
				s.Coverage[id] = n
			}
		}
		samples[rank] = s
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for rank, s := range samples {
		h := append(m.history[rank], s)
		if len(h) > m.keep {
			h = h[len(h)-m.keep:]
		}
		m.history[rank] = h
	}
}

// Latest returns the most recent sample of every locality, in rank
// order; the second result is false before the first sampling round.
// The samples are deep copies — mutating them does not affect the
// retained history.
func (m *Monitor) Latest() ([]Sample, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Sample, 0, len(m.history))
	for _, h := range m.history {
		if len(h) == 0 {
			return nil, false
		}
		out = append(out, h[len(h)-1].clone())
	}
	return out, true
}

// History returns the retained samples of one locality, oldest first.
// The samples are deep copies — mutating them does not affect the
// retained history.
func (m *Monitor) History(rank int) []Sample {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Sample, len(m.history[rank]))
	for i, s := range m.history[rank] {
		out[i] = s.clone()
	}
	return out
}
