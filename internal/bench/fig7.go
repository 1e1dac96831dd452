package bench

import (
	"math"

	"allscale/internal/simnet"
)

// haloModel is the shared event-driven model of the two weak-scaling
// applications: per step every node exchanges boundary data with its
// band neighbors and runs a node-parallel kernel; the AllScale
// variant prefixes each step with the runtime's management message
// chain (index resolution up the Fig. 5 hierarchy, task placement and
// completion traffic). Halo messages are tagged with their step so a
// fast neighbor cannot satisfy a slow one's previous step.
type haloModel struct {
	nodes        int
	steps        int
	flopsPerStep float64 // per node
	haloBytes    int64   // per neighbor per step
	mgmtMsgs     int     // AllScale round-trip count per node per step (0 = MPI)
}

func (m haloModel) run() simnet.Time {
	c := simnet.New(simnet.DefaultConfig(m.nodes))
	nodes := m.nodes

	type nodeState struct {
		step     int
		haloGot  map[int]int
		computed bool
	}
	states := make([]*nodeState, nodes)
	finished := 0

	haloWant := func(i int) int {
		w := 0
		if i > 0 {
			w++
		}
		if i < nodes-1 {
			w++
		}
		return w
	}

	var startStep func(i int)
	tryAdvance := func(i int) {
		st := states[i]
		if !st.computed || st.haloGot[st.step] < haloWant(i) {
			return
		}
		delete(st.haloGot, st.step)
		st.step++
		if st.step >= m.steps {
			finished++
			return
		}
		startStep(i)
	}
	startStep = func(i int) {
		st := states[i]
		st.computed = false
		step := st.step

		begin := func() {
			deliver := func(j int) func() {
				return func() {
					states[j].haloGot[step]++
					tryAdvance(j)
				}
			}
			if i > 0 {
				c.Send(i, i-1, m.haloBytes, deliver(i-1))
			}
			if i < nodes-1 {
				c.Send(i, i+1, m.haloBytes, deliver(i+1))
			}
			c.ExecParallelFlops(i, m.flopsPerStep, func() {
				st.computed = true
				tryAdvance(i)
			})
		}

		if m.mgmtMsgs > 0 && nodes > 1 {
			remaining := m.mgmtMsgs
			for k := 0; k < m.mgmtMsgs; k++ {
				peer := i / 2 // toward the hierarchy's inner nodes
				if k%2 == 0 && i+1 < nodes {
					peer = i + 1
				}
				c.Send(i, peer, 256, func() {
					c.Send(peer, i, 128, func() {
						remaining--
						if remaining == 0 {
							begin()
						}
					})
				})
			}
		} else {
			begin()
		}
	}

	for i := range states {
		states[i] = &nodeState{haloGot: make(map[int]int)}
		i := i
		c.Eng.Schedule(0, func() { startStep(i) })
	}
	total := c.Eng.Run()
	if finished != nodes {
		panic("bench: halo simulation stalled")
	}
	return total
}

// stencilModel captures the per-node workload of Table 1: a
// 20,000² element grid per node, band-decomposed along one axis.
type stencilModel struct {
	edge  int // elements per edge of the per-node block
	steps int
}

func defaultStencilModel() stencilModel { return stencilModel{edge: 20000, steps: 8} }

// simulateStencil returns the achieved GFLOPS of the step model.
func simulateStencil(nodes int, allscale bool) float64 {
	m := defaultStencilModel()
	cells := float64(m.edge) * float64(m.edge)
	flopsPerStep := cells * 6 // stencil.FlopsPerCell
	mgmt := 0
	if allscale {
		// ExtraDepth=1 → 2 process tasks per node per step, each with
		// an index-resolve round trip per hierarchy level plus
		// placement and completion messages.
		mgmt = 2 * (2 + 2*simnet.LogTreeDepth(nodes))
	}
	total := haloModel{
		nodes:        nodes,
		steps:        m.steps,
		flopsPerStep: flopsPerStep,
		haloBytes:    int64(m.edge) * 8,
		mgmtMsgs:     mgmt,
	}.run()
	return float64(nodes) * flopsPerStep * float64(m.steps) / float64(total) / 1e9
}

// Fig7Stencil reproduces the left panel of Fig. 7.
func Fig7Stencil() Figure {
	return againstMPI(Figure{ID: "Fig7-left", Title: "stencil throughput scaling (weak, 20,000^2/node)", Metric: "GFLOPS"},
		func(n int) float64 { return simulateStencil(n, true) },
		func(n int) float64 { return simulateStencil(n, false) })
}

// ---------------------------------------------------------------
// Fig. 7 middle: iPiC3D, weak scaling, particle updates / s
// ---------------------------------------------------------------

type ipicModel struct {
	particlesPerNode float64
	steps            int
	// flopsPerParticle is the full-cycle equivalent work per particle
	// update (mover + field solve share), calibrated so one node
	// reaches ≈65k particle updates/s as in Fig. 7.
	flopsPerParticle float64
	// ghostBytes is the per-step per-neighbor exchange volume: field
	// ghost planes plus migrating particles.
	ghostBytes int64
}

func defaultIPiCModel() ipicModel {
	return ipicModel{
		particlesPerNode: 48e6,
		steps:            3,
		flopsPerParticle: 765e3,
		ghostBytes:       24e6, // ~0.05% migrating particles à 48 B + field planes
	}
}

// simulateIPiC returns particle updates per second of the step model.
func simulateIPiC(nodes int, allscale bool) float64 {
	m := defaultIPiCModel()
	flopsPerStep := m.particlesPerNode * m.flopsPerParticle
	mgmt := 0
	if allscale {
		// Three pfor phases per step (push/collect/fields), two
		// process tasks each.
		mgmt = 3 * 2 * (2 + 2*simnet.LogTreeDepth(nodes))
	}
	total := haloModel{
		nodes:        nodes,
		steps:        m.steps,
		flopsPerStep: flopsPerStep,
		haloBytes:    m.ghostBytes,
		mgmtMsgs:     mgmt,
	}.run()
	updates := float64(nodes) * m.particlesPerNode * float64(m.steps)
	return updates / float64(total)
}

// Fig7IPiC3D reproduces the middle panel of Fig. 7.
func Fig7IPiC3D() Figure {
	return againstMPI(Figure{ID: "Fig7-middle", Title: "iPiC3D throughput scaling (weak, 48e6 particles/node)", Metric: "particles/s"},
		func(n int) float64 { return simulateIPiC(n, true) },
		func(n int) float64 { return simulateIPiC(n, false) })
}

// ---------------------------------------------------------------
// Fig. 7 right: TPC, fixed 2^29 points, queries / s
// ---------------------------------------------------------------

type tpcModel struct {
	queries int
	// flopsPerQuery is the pruned-traversal work of one query over the
	// full tree (calibrated to ≈300–500 queries/s on one node).
	flopsPerQuery float64
	// rootShare is the fraction of per-query work spent in the
	// replicated root block at the origin.
	rootShare float64
	// tasksPerNodeFactor: remote sub-tasks per query ≈ factor·nodes —
	// the finer the tree is distributed, the more boundary tasks a
	// traversal spawns ("large number of inherently small tasks").
	tasksPerNodeFactor float64
	// taskBytes/taskCPU: size and per-end CPU cost of transferring one
	// task (closure, requirements, region descriptors).
	taskBytes int64
	taskCPU   float64
	// indexCPU is the region-algebra and lookup work each remote task
	// placement induces at the upper levels of the Fig. 5 hierarchy,
	// which concentrate on low-rank processes — the central resource
	// whose saturation caps TPC scaling.
	indexCPU float64
	// inflight is the client-side query concurrency.
	inflight int
	// batch is the MPI aggregation factor (Section 4.2).
	batch int
}

func defaultTPCModel() tpcModel {
	return tpcModel{
		queries:            4096,
		flopsPerQuery:      1.0e8,
		rootShare:          0.08,
		tasksPerNodeFactor: 2.4,
		taskBytes:          4096,
		taskCPU:            30e-6,
		indexCPU:           240e-6,
		inflight:           64,
		batch:              64,
	}
}

// simulateTPCAllScale models the prototype's behaviour: each query
// traverses the replicated root block at its origin, then forwards
// one small task per traversed remote block to the block's owner;
// every forward consults the index hierarchy (charged to node 0,
// which hosts the upper levels).
//
// With cached, the locate cache of E13 (DESIGN.md §6f) is modelled:
// node 0 is charged the index resolution only the first time an
// origin resolves a given sub-task's owner; every later placement of
// the same requirement hits the origin-local cache and pays nothing
// remotely. Coverage never changes after TPC's load phase, so entries
// stay warm for the whole query run (the model's analogue of the
// zero-RPC steady state the runtime tests assert).
func simulateTPCAllScale(nodes int, cached bool) float64 {
	m := defaultTPCModel()
	cfg := simnet.DefaultConfig(nodes)
	c := simnet.New(cfg)

	subTasks := int(math.Max(1, math.Round(m.tasksPerNodeFactor*float64(nodes))))
	rootFlops := m.flopsPerQuery * m.rootShare
	subFlops := m.flopsPerQuery * (1 - m.rootShare) / float64(subTasks)

	issued := 0
	done := 0
	var resolved []bool // by origin*subTasks + k, when cached
	if cached {
		resolved = make([]bool, nodes*subTasks)
	}

	var issue func(origin int)
	issue = func(origin int) {
		if issued >= m.queries {
			return
		}
		issued++
		// Root-block traversal at the origin.
		c.ExecFlops(origin, rootFlops, func() {
			if nodes == 1 {
				// Everything is local: remaining work on local cores.
				c.ExecFlops(origin, m.flopsPerQuery*(1-m.rootShare), func() {
					done++
					issue(origin)
				})
				return
			}
			remaining := subTasks
			for k := 0; k < subTasks; k++ {
				owner := (origin + 1 + k) % nodes
				// Ship the task, execute at the owner, return the count.
				ship := func() {
					c.ExecSeconds(origin, m.taskCPU, func() {
						c.Send(origin, owner, m.taskBytes, func() {
							c.ExecSeconds(owner, m.taskCPU, func() {
								c.ExecFlops(owner, subFlops, func() {
									c.Send(owner, origin, 64, func() {
										remaining--
										if remaining == 0 {
											done++
											issue(origin)
										}
									})
								})
							})
						})
					})
				}
				if cached {
					key := origin*subTasks + k
					if resolved[key] {
						ship() // warm cache: resolution is a local-memory hit
						continue
					}
					resolved[key] = true
				}
				// Task placement: index lookup at the hierarchy's upper
				// levels (node 0).
				c.ExecSeconds(0, m.indexCPU, ship)
			}
		})
	}

	for k := 0; k < m.inflight; k++ {
		origin := k % nodes
		c.Eng.Schedule(0, func() { issue(origin) })
	}
	total := c.Eng.Run()
	if done != m.queries {
		panic("bench: tpc allscale simulation stalled")
	}
	return float64(done) / float64(total)
}

// simulateTPCMPI models the reference: query batches broadcast from
// rank 0, answered in parallel over each rank's tree share, partial
// counts gathered — aggregation amortizes the latency.
func simulateTPCMPI(nodes int) float64 {
	m := defaultTPCModel()
	cfg := simnet.DefaultConfig(nodes)
	c := simnet.New(cfg)

	batches := (m.queries + m.batch - 1) / m.batch
	perNodeFlopsPerBatch := float64(m.batch) * m.flopsPerQuery / float64(nodes)

	var runBatch func(b int)
	runBatch = func(b int) {
		if b >= batches {
			return
		}
		c.Broadcast(0, int64(m.batch)*56, func() {
			remaining := nodes
			for i := 0; i < nodes; i++ {
				c.ExecParallelFlops(i, perNodeFlopsPerBatch, func() {
					remaining--
					if remaining == 0 {
						c.Gather(0, int64(m.batch)*8, func() {
							// Rank 0 folds one partial-count vector per
							// rank into the result — the serial share
							// that bends the MPI curve below linear at
							// scale.
							reduceCPU := float64(nodes*m.batch) * 0.3e-6
							c.ExecSeconds(0, reduceCPU, func() {
								runBatch(b + 1)
							})
						})
					}
				})
			}
		})
	}
	c.Eng.Schedule(0, func() { runBatch(0) })
	total := c.Eng.Run()
	return float64(m.queries) / float64(total)
}

// Fig7TPC reproduces the right panel of Fig. 7.
func Fig7TPC() Figure {
	return againstMPI(Figure{ID: "Fig7-right", Title: "TPC throughput scaling (2^29 points, r=20)", Metric: "queries/s"},
		func(n int) float64 { return simulateTPCAllScale(n, false) },
		simulateTPCMPI)
}

// Fig7TPCCached is the E13 counterpart of Fig7TPC: the TPC panel with
// the locate cache enabled in the model, next to the uncached curve
// and the MPI reference. The uncached curve collapses past 8 nodes
// because every placement charges the low-rank index hosts; cached,
// the per-(origin,sub-task) charge is one-time and scaling continues
// past the old peak.
func Fig7TPCCached() Figure {
	fig := Figure{ID: "E13-tpc", Title: "TPC throughput scaling with locate cache (2^29 points, r=20)", Metric: "queries/s"}
	fig.Series = []Series{
		sweep("AllScale+cache", func(n int) float64 { return simulateTPCAllScale(n, true) }),
		sweep("AllScale", func(n int) float64 { return simulateTPCAllScale(n, false) }),
		sweep("MPI", simulateTPCMPI),
	}
	return fig
}
