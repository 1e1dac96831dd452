package main

import (
	"fmt"
	"io"
	"net"
	"sort"
	"time"
)

// The sandbox changes pace. Everything that is not a tight arithmetic
// loop — goroutine switches, system calls, socket round trips, map and
// allocator work — runs at one of several speeds up to 1.7 times apart,
// flipping between them within a millisecond, and for minutes at a time
// mostly at the slow ones: all four workloads together, whatever else
// the guest does (README, estimator). No statistic of raw times
// survives that: ten runs of the same code land in a fast period, a
// slow one, or both. So the harness measures the pace while it measures
// the program, with a reference op that uses nothing of this
// repository, and reports every time divided by the pace it was taken
// at.

const (
	// paceNominal is the reference op's time on the undisturbed sandbox:
	// pace 1. It only fixes the scale of the adjusted times, so that
	// they read as the times of a quiet machine; comparisons between
	// commits do not depend on it.
	paceNominal = 5900 * time.Nanosecond
	// paceTrips is the number of reference ops in one sample: about 25 µs.
	paceTrips = 4
	// paceEvery is how often a driver stops for a sample: 1–2 % of its time.
	paceEvery = 2 * time.Millisecond
)

// pacer times the reference op: 64 bytes sent over a TCP loopback
// connection and back, both ends held by the calling goroutine — two
// writes and two reads that never block, because loopback delivers
// within the write. It shares nothing with the system under test and
// parks no goroutine, so it reads the same whatever else the process
// is doing, and it slows down as the workloads do.
type pacer struct {
	a, b net.Conn
	buf  [64]byte
	err  error // first failure of the connection

	last  time.Time       // when the latest sample ended
	at    []time.Duration // the time of each sample tick recorded
	paces []float64       // and its value
}

func newPacer() (*pacer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("pacer: %w", err)
	}
	defer ln.Close()
	a, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return nil, fmt.Errorf("pacer: %w", err)
	}
	b, err := ln.Accept()
	if err != nil {
		a.Close()
		return nil, fmt.Errorf("pacer: %w", err)
	}
	p := &pacer{a: a, b: b}
	p.sample() // the first trips pay for cold paths
	if p.err != nil {
		p.close()
		return nil, p.err
	}
	return p, nil
}

// sample returns the machine's pace now: the reference op's time over
// its nominal time.
func (p *pacer) sample() float64 {
	start := time.Now()
	for i := 0; i < paceTrips; i++ {
		p.send(p.a, p.b)
		p.send(p.b, p.a)
	}
	p.last = time.Now()
	return float64(p.last.Sub(start)) / float64(paceTrips*paceNominal)
}

func (p *pacer) send(from, to net.Conn) {
	if _, err := from.Write(p.buf[:]); err != nil && p.err == nil {
		p.err = fmt.Errorf("pacer: %w", err)
	}
	if _, err := io.ReadFull(to, p.buf[:]); err != nil && p.err == nil {
		p.err = fmt.Errorf("pacer: %w", err)
	}
}

// steady returns the median of nine samples in a row, a quarter of a
// millisecond: the pace around one measurement taken alone.
func (p *pacer) steady() float64 {
	var v [9]float64
	for i := range v {
		v[i] = p.sample()
	}
	sort.Float64s(v[:])
	return v[len(v)/2]
}

// tick records a sample, at its time since t0, when the latest is older
// than paceEvery. A driver calls it between ops.
func (p *pacer) tick(t0 time.Time) {
	if time.Since(p.last) < paceEvery {
		return
	}
	v := p.sample()
	p.at = append(p.at, p.last.Sub(t0))
	p.paces = append(p.paces, v)
}

func (p *pacer) close() {
	p.a.Close()
	p.b.Close()
}
