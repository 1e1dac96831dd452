// Package mpi provides a small message-passing interface in the
// spirit of MPI, built on the same transports as the AllScale
// runtime. It is the substrate of the reference implementations the
// paper's evaluation compares against (Section 4): explicit,
// user-managed data distribution with two-sided messaging and
// collectives.
package mpi

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"allscale/internal/transport"
	"allscale/internal/wire"
)

// World is a set of MPI-style ranks over an in-process fabric.
type World struct {
	fabric *transport.Fabric
	comms  []*Comm
}

// NewWorld creates n ranks.
func NewWorld(n int) *World {
	w := &World{fabric: transport.NewFabric(n)}
	for i := 0; i < n; i++ {
		c := &Comm{ep: w.fabric.Endpoint(i)}
		c.cond = sync.NewCond(&c.mu)
		c.ep.SetHandler(c.deliver)
		w.comms = append(w.comms, c)
	}
	w.fabric.Start()
	return w
}

// Comm returns the communicator of a rank.
func (w *World) Comm(rank int) *Comm { return w.comms[rank] }

// Close shuts the world down.
func (w *World) Close() error { return w.fabric.Close() }

// Run executes fn concurrently on every rank (the SPMD model) and
// returns the first error.
func (w *World) Run(fn func(c *Comm) error) error {
	errs := make(chan error, len(w.comms))
	var wg sync.WaitGroup
	for _, c := range w.comms {
		wg.Add(1)
		go func(c *Comm) {
			defer wg.Done()
			if err := fn(c); err != nil {
				errs <- fmt.Errorf("rank %d: %w", c.Rank(), err)
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// envelope is one queued incoming message.
type envelope struct {
	from, tag int
	data      []byte
}

// Comm is the per-rank communicator. Point-to-point operations match
// on (source, tag) with MPI semantics: per-sender order is preserved.
type Comm struct {
	ep    transport.Endpoint
	mu    sync.Mutex
	cond  *sync.Cond
	queue []envelope
}

// Rank returns this communicator's rank.
func (c *Comm) Rank() int { return c.ep.Rank() }

// Size returns the number of ranks.
func (c *Comm) Size() int { return c.ep.Size() }

func (c *Comm) deliver(msg transport.Message) {
	var tag int
	fmt.Sscanf(msg.Kind, "t%d", &tag)
	c.mu.Lock()
	c.queue = append(c.queue, envelope{from: msg.From, tag: tag, data: msg.Payload})
	c.cond.Broadcast()
	c.mu.Unlock()
}

// Send transmits data to rank `to` under the given tag (non-blocking
// buffered send, like MPI_Send with a buffered implementation).
func (c *Comm) Send(to, tag int, data []byte) error {
	return c.ep.Send(to, fmt.Sprintf("t%d", tag), data)
}

// Recv blocks until a message from rank `from` with the given tag
// arrives and returns its payload.
func (c *Comm) Recv(from, tag int) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		for i, env := range c.queue {
			if env.from == from && env.tag == tag {
				c.queue = append(c.queue[:i], c.queue[i+1:]...)
				return env.data, nil
			}
		}
		c.cond.Wait()
	}
}

// SendValue encodes v with the shared wire codec (binary for numeric
// slices, gob fallback otherwise) and sends it.
func (c *Comm) SendValue(to, tag int, v any) error {
	data, err := wire.Encode(v)
	if err != nil {
		return err
	}
	return c.Send(to, tag, data)
}

// RecvValue receives and decodes into out.
func (c *Comm) RecvValue(from, tag int, out any) error {
	data, err := c.Recv(from, tag)
	if err != nil {
		return err
	}
	return wire.Decode(data, out)
}

// Internal collective tags live above this base; user tags must stay
// below.
const collectiveTagBase = 1 << 20

// Bcast distributes root's data to all ranks and returns it (binomial
// tree).
func (c *Comm) Bcast(root int, data []byte) ([]byte, error) {
	n := c.Size()
	me := (c.Rank() - root + n) % n // virtual rank with root at 0
	mask := 1
	for mask < n {
		mask <<= 1
	}
	for dist := mask / 2; dist >= 1; dist /= 2 {
		tag := collectiveTagBase + 1000 + dist
		if me%dist == 0 {
			if me%(2*dist) == 0 {
				peer := me + dist
				if peer < n {
					if err := c.Send((peer+root)%n, tag, data); err != nil {
						return nil, err
					}
				}
			} else {
				peer := me - dist
				got, err := c.Recv((peer+root)%n, tag)
				if err != nil {
					return nil, err
				}
				data = got
			}
		}
	}
	return data, nil
}

// ReduceFloat64 combines one float64 per rank at root with op
// ("sum", "min", "max"); non-root ranks receive 0.
func (c *Comm) ReduceFloat64(root int, v float64, op string) (float64, error) {
	vals, err := c.gatherFloat64(root, v)
	if err != nil {
		return 0, err
	}
	if c.Rank() != root {
		return 0, nil
	}
	return combine(vals, op)
}

// AllreduceFloat64 combines one float64 per rank with op on every
// rank.
func (c *Comm) AllreduceFloat64(v float64, op string) (float64, error) {
	red, err := c.ReduceFloat64(0, v, op)
	if err != nil {
		return 0, err
	}
	var payload []byte
	if c.Rank() == 0 {
		payload = binary.LittleEndian.AppendUint64(nil, math.Float64bits(red))
	}
	data, err := c.Bcast(0, payload)
	if err != nil {
		return 0, err
	}
	if len(data) != 8 {
		return 0, fmt.Errorf("mpi: allreduce broadcast carried %d bytes, want 8", len(data))
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(data)), nil
}

func (c *Comm) gatherFloat64(root int, v float64) ([]float64, error) {
	tag := collectiveTagBase + 2000
	if c.Rank() != root {
		return nil, c.SendValue(root, tag, v)
	}
	vals := make([]float64, c.Size())
	vals[root] = v
	for r := 0; r < c.Size(); r++ {
		if r == root {
			continue
		}
		if err := c.RecvValue(r, tag, &vals[r]); err != nil {
			return nil, err
		}
	}
	return vals, nil
}

// Gather collects one byte slice per rank at root (index = rank).
func (c *Comm) Gather(root int, data []byte) ([][]byte, error) {
	tag := collectiveTagBase + 3000
	if c.Rank() != root {
		return nil, c.Send(root, tag, data)
	}
	out := make([][]byte, c.Size())
	out[root] = data
	for r := 0; r < c.Size(); r++ {
		if r == root {
			continue
		}
		got, err := c.Recv(r, tag)
		if err != nil {
			return nil, err
		}
		out[r] = got
	}
	return out, nil
}

func combine(vals []float64, op string) (float64, error) {
	if len(vals) == 0 {
		return 0, fmt.Errorf("mpi: empty reduction")
	}
	acc := vals[0]
	for _, v := range vals[1:] {
		switch op {
		case "sum":
			acc += v
		case "min":
			if v < acc {
				acc = v
			}
		case "max":
			if v > acc {
				acc = v
			}
		default:
			return 0, fmt.Errorf("mpi: unknown reduction op %q", op)
		}
	}
	return acc, nil
}
