// Package simnet models a distributed-memory cluster after the
// evaluation platform of the paper (Section 4.1): nodes with two
// 10-core Xeon E5-2630 v4 processors connected by an Omni-Path fabric
// in a fat-tree topology. Compute is charged to per-node core
// resources, messages to per-node NIC serialization plus a base
// latency with a mild fat-tree distance surcharge. A deterministic
// discrete-event engine (engine.go) charges compute and communication
// to a virtual clock instead of wall time, so 64-node sweeps run on a
// laptop (see DESIGN.md §4, substitution for the RRZE Meggie cluster).
package simnet

import "math"

// Config calibrates the cluster model. The defaults approximate one
// Meggie node and its Omni-Path link.
type Config struct {
	Nodes        int
	CoresPerNode int
	// NodeFlops is the sustained floating-point rate of one node in
	// FLOP/s (all cores together).
	NodeFlops float64
	// LinkBandwidth is the per-node injection bandwidth in bytes/s.
	LinkBandwidth float64
	// BaseLatency is the end-to-end latency of a minimal message in
	// seconds.
	BaseLatency float64
	// HopLatency is the extra latency per fat-tree level crossed.
	HopLatency float64
	// MsgCPU is the CPU time a node spends per message sent or
	// received (protocol processing); it occupies a core.
	MsgCPU float64
	// RadixUp is the fat-tree arity used to compute the number of
	// levels between two nodes.
	RadixUp int
}

// DefaultConfig returns the Meggie-like calibration.
func DefaultConfig(nodes int) Config {
	return Config{
		Nodes:         nodes,
		CoresPerNode:  20,
		NodeFlops:     50e9,      // ~50 GFLOPS sustained per node
		LinkBandwidth: 100e9 / 8, // 100 Gbit/s Omni-Path
		BaseLatency:   1.5e-6,
		HopLatency:    0.3e-6,
		MsgCPU:        0.7e-6,
		RadixUp:       16,
	}
}

// Stats aggregates cluster-wide counters.
type Stats struct {
	Msgs  uint64
	Bytes uint64
}

// host is one simulated cluster node. svc is the dedicated runtime
// service / communication progress thread (as in HPX): protocol
// processing does not compete with the compute cores.
type host struct {
	cores, nic, svc *Resource
}

// Cluster is the simulated machine.
type Cluster struct {
	Eng   *Engine
	Cfg   Config
	nodes []*host
	stats Stats
}

// New builds a cluster over a fresh engine.
func New(cfg Config) *Cluster {
	eng := &Engine{}
	c := &Cluster{Eng: eng, Cfg: cfg}
	for i := 0; i < cfg.Nodes; i++ {
		c.nodes = append(c.nodes, &host{
			cores: newResource(eng, cfg.CoresPerNode),
			nic:   newResource(eng, 1),
			svc:   newResource(eng, 1),
		})
	}
	return c
}

// Stats returns the traffic counters.
func (c *Cluster) Stats() Stats { return c.stats }

// hops returns the fat-tree level distance between two nodes: 0 for
// self, 1 within a leaf switch group, +2 per additional tree level up
// and down.
func (c *Cluster) hops(a, b int) int {
	if a == b {
		return 0
	}
	radix := c.Cfg.RadixUp
	if radix < 2 {
		radix = 2
	}
	levels := 1
	ga, gb := a/radix, b/radix
	for ga != gb {
		levels += 2
		ga, gb = ga/radix, gb/radix
	}
	return levels
}

// ExecFlops occupies one core of the node for work/NodeFlops·cores
// seconds — i.e. `work` FLOPs executed at a single core's share of
// the node rate — then calls done.
func (c *Cluster) ExecFlops(node int, work float64, done func()) {
	coreRate := c.Cfg.NodeFlops / float64(c.Cfg.CoresPerNode)
	c.nodes[node].cores.Use(Time(work/coreRate), done)
}

// ExecParallelFlops occupies all cores of the node for
// work/NodeFlops seconds (a perfectly parallel node-local kernel).
func (c *Cluster) ExecParallelFlops(node int, work float64, done func()) {
	dur := Time(work / c.Cfg.NodeFlops)
	n := c.nodes[node]
	remaining := c.Cfg.CoresPerNode
	for i := 0; i < c.Cfg.CoresPerNode; i++ {
		n.cores.Use(dur, func() {
			remaining--
			if remaining == 0 && done != nil {
				done()
			}
		})
	}
}

// ExecSeconds occupies one core for a fixed duration.
func (c *Cluster) ExecSeconds(node int, dur float64, done func()) {
	c.nodes[node].cores.Use(Time(dur), done)
}

// Send models one message of the given size from src to dst: CPU
// message processing at the sender, NIC serialization, wire latency
// (base + per-hop), CPU processing at the receiver, then deliver runs
// at dst. Self-sends cost only a small in-memory handoff.
func (c *Cluster) Send(src, dst int, bytes int64, deliver func()) {
	c.stats.Msgs++
	c.stats.Bytes += uint64(bytes)
	if src == dst {
		c.Eng.Schedule(Time(50e-9), deliver)
		return
	}
	cfg := &c.Cfg
	msgCPU := Time(cfg.MsgCPU)
	serialize := Time(float64(bytes) / cfg.LinkBandwidth)
	wire := Time(cfg.BaseLatency + float64(c.hops(src, dst))*cfg.HopLatency)
	from, to := c.nodes[src], c.nodes[dst]

	// Sender service thread, then NIC serialization, then wire, then
	// receiver service thread.
	from.svc.Use(msgCPU, func() {
		from.nic.Use(serialize, func() {
			c.Eng.Schedule(wire, func() {
				to.svc.Use(msgCPU, deliver)
			})
		})
	})
}

// Broadcast models a binomial-tree broadcast from root to all nodes,
// calling done when every node received the payload — the collective
// pattern of the MPI baselines.
func (c *Cluster) Broadcast(root int, bytes int64, done func()) {
	n := c.Cfg.Nodes
	if n <= 1 {
		c.Eng.Schedule(0, done)
		return
	}
	remaining := n - 1
	arrived := func() {
		remaining--
		if remaining == 0 && done != nil {
			done()
		}
	}
	// Virtual ranks with root at 0.
	mask := 1
	for mask < n {
		mask <<= 1
	}
	var forward func(vrank int, dist int)
	forward = func(vrank, dist int) {
		for d := dist; d >= 1; d /= 2 {
			peer := vrank + d
			if peer < n {
				src := (vrank + root) % n
				dst := (peer + root) % n
				d := d
				c.Send(src, dst, bytes, func() {
					arrived()
					forward(peer, d/2)
				})
			}
		}
	}
	forward(0, mask/2)
}

// Gather models an all-to-root gather of per-node payloads.
func (c *Cluster) Gather(root int, bytesPerNode int64, done func()) {
	n := c.Cfg.Nodes
	if n <= 1 {
		c.Eng.Schedule(0, done)
		return
	}
	remaining := n - 1
	for i := 0; i < n; i++ {
		if i == root {
			continue
		}
		c.Send(i, root, bytesPerNode, func() {
			remaining--
			if remaining == 0 && done != nil {
				done()
			}
		})
	}
}

// LogTreeDepth returns ceil(log2(n)), the depth of the runtime's
// binary process hierarchy (Fig. 5) used to cost index lookups.
func LogTreeDepth(n int) int {
	if n <= 1 {
		return 0
	}
	return int(math.Ceil(math.Log2(float64(n))))
}
