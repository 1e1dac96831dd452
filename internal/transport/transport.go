// Package transport provides the compact, exchangeable communication
// layer of the AllScale runtime prototype (Section 3.2). The paper's
// HPX substrate offers MPI, plain TCP, or libfabric implementations;
// this package provides an in-process channel fabric (the default for
// hosting many localities in one OS process) and a plain TCP fabric
// (for running localities as separate processes), both behind the
// same Endpoint interface: ordered delivery, one hand-off per Send.
package transport

import (
	"fmt"

	"allscale/internal/metrics"
)

// Message is the unit of communication between runtime processes.
// Kind selects the handler at the receiver; Payload is an opaque,
// already-encoded body.
type Message struct {
	From    int
	To      int
	Kind    string
	Payload []byte
}

// Handler consumes incoming messages. Handlers run on the endpoint's
// delivery goroutine; long-running work must be handed off.
type Handler func(msg Message)

// FailureHandler is notified when the endpoint detects that the link
// to a peer has failed: a failed Send (reported before Send returns),
// a broken or timed-out write, a severed connection or a corrupt frame.
// Frames in flight toward (or from) that peer at the moment of failure
// may have been lost; higher layers use the callback to fail outstanding
// request/response exchanges instead of waiting forever. The handler
// runs on transport goroutines and must not block. A notification is
// a per-connection event, not a permanent verdict: the next Send to the
// peer dials it again.
type FailureHandler func(peer int, err error)

// Endpoint is one communication port of a runtime process.
// Implementations deliver the frames a live connection accepted once
// and in per-sender order; a frame lost with a broken connection is
// resent by the runtime's link, not here.
type Endpoint interface {
	// Rank returns this endpoint's process rank in [0, Size).
	Rank() int
	// Size returns the number of processes in the fabric.
	Size() int
	// Send hands payload off toward process `to` once, retrying
	// nothing. When the hand-off fails, the FailureHandler has been told
	// of the peer before Send returns the error.
	Send(to int, kind string, payload []byte) error
	// SetHandler installs the message handler. Must be called before
	// the first message arrives; the in-process fabric buffers until
	// all handlers are installed via Fabric.Start.
	SetHandler(h Handler)
	// SetFailureHandler installs the peer-failure callback (may be
	// nil to disable). See FailureHandler for the delivery contract.
	SetFailureHandler(h FailureHandler)
	// SetMetrics rebinds the endpoint's traffic counters to the given
	// registry (under the Metric* names), the only place they are read
	// from. Like SetHandler it must be called before traffic flows;
	// counts accumulated earlier stay in the endpoint's private registry.
	SetMetrics(reg *metrics.Registry)
	// Close shuts the endpoint down; pending sends may be dropped.
	Close() error
}

// Registry names under which endpoints publish their traffic counters.
// A frame is counted sent before it is handed off, so that whoever sees
// it arrive sees its count too; one whose hand-off fails counts in
// MetricSendErrors as well.
const (
	MetricMsgsSent      = "transport.msgs_sent"
	MetricBytesSent     = "transport.bytes_sent"
	MetricMsgsReceived  = "transport.msgs_received"
	MetricBytesReceived = "transport.bytes_received"
	// MetricReconnects counts redials of a peer whose previous
	// connection was evicted as broken.
	MetricReconnects = "transport.reconnects"
	// MetricSendErrors counts Send calls whose one hand-off failed.
	MetricSendErrors = "transport.send_errors"
	// MetricReads counts TCP socket reads: one per arrival. MetricWrites
	// counts the flushers' write(2)s: one per batch of frames.
	MetricReads  = "transport.reads"
	MetricWrites = "transport.writes"
	// MetricDroppedFrames counts inbound frames rejected as corrupt; the
	// carrying connection is closed.
	MetricDroppedFrames = "transport.dropped_frames"
)

// counters are an endpoint's traffic counters, registered in the
// registry the rest of the locality publishes to.
type counters struct {
	msgsSent, bytesSent, msgsRecv, bytesRecv *metrics.Counter
	reconnects, sendErrors, droppedFrames    *metrics.Counter
	reads, writes                            *metrics.Counter
}

// newCounters binds a counters set to reg (a fresh private registry
// when reg is nil).
func newCounters(reg *metrics.Registry) *counters {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	return &counters{
		msgsSent:      reg.Counter(MetricMsgsSent),
		bytesSent:     reg.Counter(MetricBytesSent),
		msgsRecv:      reg.Counter(MetricMsgsReceived),
		bytesRecv:     reg.Counter(MetricBytesReceived),
		reconnects:    reg.Counter(MetricReconnects),
		sendErrors:    reg.Counter(MetricSendErrors),
		droppedFrames: reg.Counter(MetricDroppedFrames),
		reads:         reg.Counter(MetricReads),
		writes:        reg.Counter(MetricWrites),
	}
}

func (c *counters) sent(n int) {
	c.msgsSent.Inc()
	c.bytesSent.Add(uint64(n))
}

func (c *counters) received(n int) {
	c.msgsRecv.Inc()
	c.bytesRecv.Add(uint64(n))
}

func checkRank(rank, size int) error {
	if rank < 0 || rank >= size {
		return fmt.Errorf("transport: rank %d out of range [0,%d)", rank, size)
	}
	return nil
}
